(** Record-oriented in-memory storage for the OLTP engine.

    Each table keeps fixed-width records in simulated memory plus a
    per-record lock word; reads and writes charge the lock-word touch and
    the payload transfer, which is where the cross-chiplet coherence
    traffic of short transactions comes from. *)

open Chipsim

type table

val create_table :
  alloc:(elt_bytes:int -> count:int -> Simmem.region) ->
  name:string -> rows:int -> payload_words:int -> table

val reserve_table :
  alloc:(elt_bytes:int -> count:int -> Simmem.region) ->
  rows:int -> payload_words:int -> unit
(** Allocate only the regions {!create_table} would, in the same order
    and sizes, keeping the address layout of later allocations without
    building the table. *)

val name : table -> string
val rows : table -> int

val read_record : Engine.Sched.ctx -> table -> int -> int
(** Charged read (lock word + payload); returns the record's first word. *)

val write_record : Engine.Sched.ctx -> table -> int -> int -> unit
(** Charged read-modify-write of the record (sets its first word). *)

val read_field : Engine.Sched.ctx -> table -> row:int -> word:int -> int
val write_field : Engine.Sched.ctx -> table -> row:int -> word:int -> int -> unit
val peek : table -> row:int -> word:int -> int
(** Uncharged value access (assertions/tests). *)
