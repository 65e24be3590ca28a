(** The CHARM runtime: public API (paper §4.6).

    Mirrors the paper's programming interface: initialise with {!init}
    (CHARM_Init), submit work with {!run} / {!all_do}, use {!Api.call} for
    remote procedure calls, {!Api.barrier_wait} for synchronisation, and
    collect statistics with {!finalize} (CHARM_Finalize).

    Under the hood every worker runs the decentralized Alg. 1 policy at
    each quantum end, migrating itself with Alg. 2.  Memory placement is
    fixed at allocation by the region's {!Chipsim.Simmem.policy}. *)

open Chipsim

type t

val init :
  ?config:Config.t ->
  ?sched_config:Engine.Sched.config ->
  Machine.t ->
  n_workers:int ->
  t
(** Create a runtime with [n_workers] worker threads placed by Alg. 2 at
    the initial spread rate (clamped up to the smallest valid spread).
    @raise Invalid_argument if the machine cannot host the gang. *)

val sched : t -> Engine.Sched.t
val machine : t -> Machine.t
val config : t -> Config.t
val n_workers : t -> int
val policy : t -> Policy.t
val profiler : t -> Profiler.t

val power_cap : t -> Power_cap.t option
(** The power-cap controller, present iff [Config.power_cap_mw > 0].  It
    ticks at every quantum end (before the profiler/policy hooks), sheds
    DVFS on the hottest chiplet while the windowed power estimate exceeds
    the cap, and — when [Config.energy_weight > 0] — serves as the
    policy's hot-chiplet oracle.  {!finalize} runs {!Power_cap.verify}
    on it when invariant checking is enabled. *)

val health : t -> Health_monitor.t
(** The degradation detector.  It is fed automatically at every quantum
    end (before the policy tick) and wired into the policy as its
    sick-chiplet oracle; under fault injection the gang flees flagged
    chiplets and admission control can shrink capacity. *)

val alloc_shared :
  t -> ?policy:Simmem.policy -> elt_bytes:int -> count:int -> unit ->
  Simmem.region
(** Allocate a dataset shared by all tasks (first-touch by default). *)

val attach_trace : t -> Engine.Trace.t -> unit
(** Wire a trace sink through every layer: the scheduler (quantum, steal,
    park, migration events), the policy (spread changes), the controller
    (adaptive mode switches) and the health monitor (sick/recovered
    instants plus a per-chiplet ns/access counter track).  Call once,
    before running work. *)

val run : t -> (Engine.Sched.ctx -> unit) -> float
(** Execute a main task to completion; returns the virtual makespan (ns).
    Can be called repeatedly; clocks continue monotonically. *)

val all_do : t -> (Engine.Sched.ctx -> int -> unit) -> float
(** Paper [all_do()]: run [f ctx worker_id] on every worker; returns the
    makespan of the whole gang. *)

val finalize : t -> Engine.Stats.report
(** Collect the end-of-run report (safe to call once, after the last run). *)

val last_makespan : t -> float

(** Operations available inside tasks. *)
module Api : sig
  val alloc :
    Engine.Sched.ctx -> elt_bytes:int -> count:int -> unit -> Simmem.region
  (** Allocate bound to the calling worker's NUMA node (Alg. 2 line 14). *)

  val call :
    Engine.Sched.ctx -> worker:int -> (Engine.Sched.ctx -> unit) ->
    Engine.Sched.task
  (** Paper [call()] (async): dispatch a closure to another worker; the
      message pays the core-to-core latency before it becomes runnable. *)

  val call_sync : Engine.Sched.ctx -> worker:int -> (Engine.Sched.ctx -> unit) -> unit
  (** Paper [call()] (sync): dispatch and await completion. *)

  val all_do : Engine.Sched.ctx -> (Engine.Sched.ctx -> int -> unit) -> unit
  (** Run [f ctx worker_id] on every worker and await all of them. *)

  val parallel_for :
    Engine.Sched.ctx -> lo:int -> hi:int -> ?grain:int ->
    (Engine.Sched.ctx -> int -> int -> unit) -> unit
  (** Split [\[lo, hi)] into chunks of [grain] (default: range/4 per
      worker), spread them round-robin over the workers and await all.
      The chunk closure receives its sub-range. *)

  val barrier_wait : Engine.Sched.ctx -> Engine.Barrier.t -> unit
end

val barrier : t -> Engine.Barrier.t
(** A barrier across all workers of this runtime. *)
