(** The shared invariant-violation exception for executable runtime checks.

    Every layer of the stack (machine model, scheduler, serving loop)
    validates its own invariants when checking is enabled; all of them
    report through this one exception so harnesses — the scenario fuzzer,
    [--check] CLI runs, CI — can catch "any invariant broke anywhere" in a
    single place.  It lives in [chipsim] only because that is the bottom
    of the dependency order. *)

exception Violation of string
(** [Violation "subsystem: what"] — the invariant that failed, with enough
    context to reproduce. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Violation} with the formatted message.  Call
    sites guard with [if] so the message is only built on failure — checks
    on hot paths must not allocate when the invariant holds. *)

(** The planted-bug registry: deliberate defects that the invariant layer
    must catch.  CI proves the checker detects them and the fuzzer
    shrinks them; every CLI names them through [--plant].  At most one
    plant is active at a time, process-wide; none is by default. *)
module Plant : sig
  type t =
    | Skip_ready_clamp
        (** the scheduler skips the ready-at causality clamp *)
    | Vote_skip
        (** the replica voter returns replica 0's token unchecked *)
    | Drop_relocated
        (** the fleet drops relocated jobs instead of re-routing them *)
    | Route_offline
        (** the fleet router prefers a fully-offline shard *)

  val names : (string * t) list
  (** CLI name of every kind ("skip-ready-clamp", ...). *)

  val name : t -> string

  val set : t option -> unit
  (** Activate one plant, or clear it with [None]. *)

  val active : t -> bool
  (** Allocation-free; cheap enough for the scheduler's per-quantum path. *)

  val current : unit -> t option
end
