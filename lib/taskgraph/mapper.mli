(** Map a task DAG onto chiplets.

    [Blind] round-robins nodes across chiplets ignoring edge weights and
    chiplet kinds — the topology-blind baseline.  [Comm_aware] contracts
    the heaviest communication edges first (greedy union-find under a
    per-cluster compute budget, so no chiplet swallows the whole graph),
    then places clusters heaviest-first where current load plus
    kind-weighted compute cost is least: dense conv/matmul clusters land
    on accelerator tiles, glue on big cores, and heavy edges stay inside
    one chiplet.  Candidate order (and thus tie-breaking) follows the
    {!Charm.Placement} chiplet visit order, so mappings are
    deterministic. *)

open Chipsim

type policy = Blind | Comm_aware

val policy_name : policy -> string
val all_policies : policy list

type t = {
  policy : policy;
  assign : int array;  (** node -> global chiplet *)
  cross_bytes : int;
      (** total bytes on edges whose endpoints map to different chiplets
          — the communication the machine will charge through its links *)
}

val map : ?usable:int array -> Topology.t -> policy:policy -> Graph.t -> t
(** [map topo ~policy g] assigns every node a chiplet.  [?usable]
    restricts candidates to the given global chiplet ids (e.g. chiplets
    that actually host workers); default all.
    @raise Invalid_argument if [usable] is empty or out of range. *)

type prepared
(** A topology's mapper inputs that do not change from call to call: the
    candidate chiplet order and each chiplet's kind. *)

val prepare : Topology.t -> prepared

val map_prepared :
  prepared -> ?usable:int array -> policy:policy -> Graph.t -> t
(** {!map} on a prepared topology: equal results, without recomputing
    the chiplet order.  [usable] is read, never kept or modified. *)

val cross_bytes : Graph.t -> assign:int array -> int
(** Bytes on edges cut by an assignment (what {!t.cross_bytes} holds). *)
