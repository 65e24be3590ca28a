(** Deterministic fault injector: replays a {!Schedule.t} against a live
    scheduler.

    The injector hooks the scheduler's event-loop frontier
    ({!Engine.Sched.set_on_advance}); every fault is applied at the first
    quantum boundary whose frontier reaches its timestamp — no wall-clock,
    no sampling, so two runs with the same seed and schedule produce
    byte-identical traces.  Applying a fault mutates the machine's
    {!Chipsim.Modifiers} (and cache/channel state for L3 and bandwidth
    faults) and notifies the scheduler about core hotplug events. *)

type t

val attach : Engine.Sched.t -> Schedule.t -> t
(** Sort the schedule and install the fault pump.  Replaces any previously
    installed [on_advance] hook. *)

val applied : t -> int
(** Events applied so far. *)

val pending : t -> int

val drain : t -> now:float -> unit
(** Force-apply every event due at or before [now] (for end-of-run
    reporting outside the scheduler loop). *)
