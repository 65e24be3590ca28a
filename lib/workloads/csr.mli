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

val with_regions :
  alloc:(elt_bytes:int -> count:int -> Simmem.region) -> t -> t
(** The same graph (its host arrays shared, not copied) with fresh
    simulated regions, allocated in the order and sizes {!of_edges}
    allocates them: on a fresh allocator they land at the addresses a
    rebuild would give. *)

val reserve_kronecker :
  alloc:(elt_bytes:int -> count:int -> Simmem.region) ->
  scale:int -> edge_factor:int -> unit
(** Allocate only the regions {!of_kronecker} would allocate for a graph
    of that scale and edge factor, keeping the address layout of later
    allocations without building the graph.
    @raise Invalid_argument as {!Kronecker.generate} on a size it
    refuses. *)

val degree : t -> int -> int
val out_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [out_neighbors t u f] calls [f v w] for every out-edge (u,v,w). *)

(** Charged accessors: each also performs the simulated memory access. *)

val read_adj : Engine.Sched.ctx -> t -> int -> unit
(** Touch the row pointer and the whole adjacency range of a vertex
    (sequential edge scan). *)
