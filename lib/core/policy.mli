(** Alg. 1 — the decentralized Chiplet Scheduling Policy.

    Each worker periodically (every [SCHEDULER_TIMER] of virtual time)
    inspects its own cache-fill counter, computes the remote-access rate,
    and widens ([spread_rate + 1]) or narrows ([spread_rate - 1]) its gang
    footprint, then asks Alg. 2 for its new core.  Decisions use only
    worker-local observations — there is no central arbiter (paper §4.1). *)

open Chipsim

type stats = {
  ticks : int;  (** timer expirations evaluated *)
  spreads : int;  (** spread_rate increments *)
  contracts : int;  (** spread_rate decrements *)
  migrations : int;  (** affinity changes actually applied *)
  skipped : int;
      (** migrations skipped (invalid bounds, occupied core, or a
          health-vetoed sick target) *)
  health_migrations : int;
      (** of [migrations], those fleeing a chiplet flagged sick *)
}

type t

val create :
  Config.t -> Machine.t -> Controller.t -> Profiler.t -> n_workers:int -> t

val spread_rate : t -> worker:int -> int

val set_health : t -> (int -> bool) option -> unit
(** Install a [chiplet -> currently sick] oracle (the health monitor).
    While set, Alg. 2 targets on sick chiplets are vetoed, workers already
    on a sick chiplet flee to the nearest free healthy core at their next
    tick, and the controller threshold is halved for degraded workers. *)

val set_power_oracle : t -> (int -> bool) option -> unit
(** Install a [chiplet -> currently power-throttled] oracle (the
    {!Power_cap} controller).  Only consulted when
    [Config.energy_weight > 0]: hot chiplets then get the same treatment
    as sick ones — vetoed as Alg. 2 targets and fled when occupied — and
    flee candidates are scored EDP-style,
    [speed / (1 + energy_weight x kind energy density)], trading peak
    speed for efficient silicon.  With [energy_weight = 0] placement is
    identical to pre-energy CHARM regardless of the oracle. *)

val tick : t -> Engine.Sched.t -> worker:int -> unit
(** Run one Alg. 1 evaluation for [worker] if its timer elapsed.  Intended
    as the scheduler's [on_quantum_end] hook.  Applies the migration via
    {!Engine.Sched.migrate}. *)

val force_tick : t -> Engine.Sched.t -> worker:int -> unit
(** Evaluate immediately, ignoring the timer (used by tests/benches). *)

val stats : t -> stats

val set_on_spread_change :
  t ->
  (worker:int -> old_spread:int -> new_spread:int -> at_ns:float -> unit) ->
  unit
(** Callback invoked whenever Alg. 1 widens or narrows a worker's
    spread_rate (tracing hook); centralized mode reports one gang-wide
    change as worker 0. *)
