(** Graph500-style Kronecker (R-MAT) edge-list generator.

    The paper's graph inputs are Kronecker graphs with 2^24 vertices and
    16 x 2^24 edges; the same generator here is run at configurable scale.
    Self-loops are dropped; duplicate edges are kept (as Graph500 does
    before its optional dedup). *)

type t = {
  scale : int;  (** vertices = 2^scale *)
  edge_factor : int;
  src : int array;
  dst : int array;
}

val max_edge_entries : int
(** 2^26: the largest [2 x edge_factor x 2^scale] (the symmetric CSR's
    edge-array length) that {!generate} accepts — scale 21 at the
    default edge factor 16. *)

val generate : ?seed:int -> ?edge_factor:int -> scale:int -> unit -> t
(** @raise Invalid_argument if [scale < 1], [edge_factor < 1], or the
    graph exceeds {!max_edge_entries}. *)

val check_size : scale:int -> edge_factor:int -> unit
(** {!generate}'s size check alone.
    @raise Invalid_argument as {!generate}. *)

val num_vertices : t -> int
val num_edges : t -> int
