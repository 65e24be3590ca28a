(** Compressed-sparse-row graph with a simulated-memory shadow.

    The adjacency structure lives in ordinary OCaml arrays (for the actual
    algorithm) and in simulated regions (for charging cache/DRAM costs):
    touching vertex/edge data through {!read_adj} etc. advances the
    executing worker's clock through the machine model. *)

open Chipsim

type t = {
  n : int;
  m : int;
  row_ptr : int array;  (** length n+1 *)
  col : int array;  (** length m *)
  weight : int array;  (** length m; 1 for unweighted graphs *)
  sim_row : Simmem.region;  (** 8 B per entry *)
  sim_col : Simmem.region;
  sim_weight : Simmem.region;
}

val of_edges :
  alloc:(elt_bytes:int -> count:int -> Simmem.region) ->
  n:int ->
  src:int array ->
  dst:int array ->
  ?weights:int array ->
  unit ->
  t
(** Build a CSR (out-edges) from an edge list.  [weights] defaults to
    random-free all-ones. *)

val of_kronecker :
  alloc:(elt_bytes:int -> count:int -> Simmem.region) ->
  ?weighted:bool -> ?seed:int -> Kronecker.t -> t
(** Symmetrise (both directions) and build; weights uniform in [1,255]
    when [weighted]. *)

val degree : t -> int -> int
val out_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [out_neighbors t u f] calls [f v w] for every out-edge (u,v,w). *)

(** Charged accessors: each also performs the simulated memory access. *)

val read_adj : Engine.Sched.ctx -> t -> int -> unit
(** Touch the row pointer and the whole adjacency range of a vertex
    (sequential edge scan). *)
