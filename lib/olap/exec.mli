(** Morsel-driven query operators (Leis et al.-style execution, the model
    DuckDB uses): parallel column scans, charged hash joins and hash
    aggregation.

    All shared hash structures carry a simulated-memory shadow so builds
    and probes generate the cache traffic that CHARM's controller reacts
    to (spread for large join state, compact for small working sets —
    paper §5.6). *)

open Chipsim

type alloc = elt_bytes:int -> count:int -> Simmem.region

val default_morsel : int

val parallel_scan :
  Engine.Sched.ctx ->
  Table.t ->
  columns:string list ->
  ?morsel:int ->
  (Engine.Sched.ctx -> int -> unit) ->
  unit
(** Scan the table in morsels spread over all workers; the named columns
    are charged as sequential reads per morsel, then the callback runs for
    every row of the morsel. *)

(** Charged multimap hash table for joins. *)
module Hash_join : sig
  type t

  val create : alloc:alloc -> expected:int -> t
  val insert : Engine.Sched.ctx -> t -> key:int -> payload:int -> unit
  val probe : Engine.Sched.ctx -> t -> key:int -> int list
  val probe_iter : Engine.Sched.ctx -> t -> key:int -> (int -> unit) -> unit
  val mem : Engine.Sched.ctx -> t -> key:int -> bool
  val size : t -> int
end

(** Charged hash aggregation: per-key float accumulators. *)
module Hash_agg : sig
  type t

  val create : alloc:alloc -> expected:int -> width:int -> t
  (** [width] accumulators per group. *)

  val row : Engine.Sched.ctx -> t -> key:int -> float array
  (** The key's accumulator row (length [width]), charged as one bucket
      read and write and created zeroed on first touch.  Callers add to
      its slots in place ([a.(s) <- a.(s) +. v]; count-style slots add
      [1.0]); the row is the group's state, so no delta list is built.
      An out-of-range slot raises [Invalid_argument] like any array
      access. *)

  val get : t -> key:int -> float array option
  val fold : t -> (int -> float array -> 'a -> 'a) -> 'a -> 'a
  val groups : t -> int
end

val charge_sort : Engine.Sched.ctx -> rows:int -> unit
(** Charge an n log n comparison sort (order-by output phases). *)
