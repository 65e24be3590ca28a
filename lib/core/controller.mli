(** Adaptive controller (paper §4.1, component 2).

    Turns an {e approach} (guiding principle) into a concrete {e policy}:
    the effective remote-access threshold the per-worker scheduling policy
    (Alg. 1) compares against.  In [Adaptive] mode the controller inspects
    each worker's profiler sample and leans cache-centric when DRAM fills
    dominate (working set outgrew the current footprint — spread for more
    aggregate L3) and location-centric when cross-chiplet fills dominate
    (sharing traffic — consolidate for locality). *)

type decision = {
  threshold : float;  (** effective [RMT_CHIP_ACCESS_RATE] for this tick *)
  mode : Config.approach;  (** the concrete approach chosen this tick *)
}

type t

val create : Config.t -> t

val decide : t -> ?degraded:bool -> Profiler.sample -> decision
(** Per-worker, per-tick policy generation from the latest sample.
    [~degraded:true] (the worker sits on a chiplet the health monitor
    flagged sick) halves the threshold so the policy spreads away from
    known-bad silicon with half the usual evidence. *)

val decide_mode : t -> remote:int -> remote_chiplet:int -> dram:int -> Config.approach
(** {!decide}'s mode (with the same switch accounting) from a sample's
    {!Profiler.remote_events}, [remote_chiplet] and [dram] counts,
    without building a sample or a decision. *)

val threshold_of : Config.t -> degraded:bool -> Config.approach -> float
(** {!decide}'s threshold for a concrete mode: a pure function of the
    configuration, so callers can tabulate it once. *)

val mode_switches : t -> int
(** Number of times adaptive mode changed direction (for stats).  The
    first concrete resolution after {!create} is not a switch. *)

val set_on_switch :
  t -> (from_mode:Config.approach -> to_mode:Config.approach -> unit) -> unit
(** Callback invoked whenever a counted mode switch happens (tracing
    hook). *)
