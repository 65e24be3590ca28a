(** The online serving loop: turn a {!Harness.Systems} instance into a
    multi-tenant job server.

    Per tenant, an arrival process ({!Arrivals}) submits jobs of a
    configured kind mix; an admission controller ({!Admission}) sheds
    arrivals beyond the queue bounds; admitted jobs wait in a weighted
    fair queue ({!Fair_queue}) until one of [max_inflight] service slots
    frees, then run as scheduler tasks dispatched through
    {!Engine.Future} — so many jobs overlap on the simulated machine and
    the placement policy under test (CHARM or a baseline) decides where
    their cache traffic lands.  Everything is driven by virtual time and
    seeded RNG streams: equal configurations give byte-identical reports.

    Observability: per-tenant latency/queue-wait histograms, SLO-violation
    and shed counters, and a {!Metrics} registry fed by the serving loop,
    by a scheduler-hook wrapper (quantum counts — installed around the
    policy's own hooks via {!Engine.Sched.hooks}), by {!Core.Profiler}
    fill counters when serving under CHARM, and by {!Engine.Trace} when a
    trace sink is attached. *)

type tenant_config = {
  name : string;
  weight : float;  (** fair-queue share *)
  slo_factor : float;
      (** SLO threshold as a multiple of the tenant's mean job cost
          estimate turned into ns (see {!Job.cost_estimate}); violations
          are counted per completed job *)
  process : Arrivals.process;
  jobs : int;  (** total jobs this tenant submits *)
  mix : (Job.kind * int) list;  (** kinds with relative weights *)
  replicas : int;
      (** run each job this many times on distinct chiplets and vote on
          the result tokens ({!Replica}); 1 = no redundancy.  A replica
          group occupies one inflight slot and completes once (when its
          last replica finishes), so admission and latency see one job.
          Requested degrees beyond the machine's worker-hosting chiplet
          count are clamped. *)
}

type config = {
  tenants : tenant_config list;
  admission : Admission.config;
      (** nominal bounds; at each arrival they are scaled by the machine's
          current {!Chipsim.Modifiers.online_capacity}, so core-offline or
          DVFS faults shrink the queues and shed load early *)
  max_inflight : int;  (** concurrent jobs in service *)
  seed : int;
  data : Job.data_config;
  trace : Engine.Trace.t option;
      (** when present, wired through every layer for the run: scheduler
          quantum/steal/park/migration events (plus policy, controller and
          health-monitor events under CHARM), job lifecycle instants
          (admit/shed/start/finish) and a periodic machine-wide fill-class
          counter track sampled every 50 us of virtual time *)
  on_complete :
    (tenant:string -> kind:Job.kind -> submit_ns:float -> finish_ns:float -> unit)
      option;
      (** called at every job completion with its arrival and finish
          virtual timestamps — lets experiment drivers (the fault bench)
          window latencies over the run without relying on the bounded
          trace ring *)
  check : bool;
      (** run the serving layer's executable invariants (and turn on the
          scheduler's, {!Engine.Sched.set_check}): every arrival is either
          admitted or shed, every admitted job completes and is sampled in
          exactly one latency histogram, the fair queue drains, and the
          registry's global counters agree with the per-tenant ledgers.  A
          violation raises {!Chipsim.Invariant.Violation}.  Default off. *)
}

val default_config : seed:int -> config
(** Three open-loop tenants (graph / OLAP / OLTP+GUPS mixes) with weights
    2:1:1 at 5000 jobs/s each, 40 jobs per tenant. *)

val tenant_rngs : seed:int -> int -> Engine.Rng.t * Engine.Rng.t
(** [tenant_rngs ~seed i] is tenant [i]'s (job mix, arrival times) RNG
    pair: kind draws and per-job seeds come from the first, arrival gaps
    from the second.  The single-machine server and the fleet's up-front
    arrival generation both seed their tenants through it. *)

type tenant_report = {
  tenant : string;
  submitted : int;
  admitted : int;
  shed : int;
  completed : int;
  relocated_out : int;
      (** admitted jobs pulled back out of the queue by a fleet router
          (0 outside fleet mode); [completed + relocated_out = admitted] *)
  relocated_in : int;  (** arrivals that were relocations from another shard *)
  slo_ns : float;
  slo_violations : int;
  latency : Histogram.t;  (** sojourn time: completion - arrival, ns *)
  queue_wait : Histogram.t;  (** dispatch - arrival, ns *)
  energy_uj : float;
      (** machine energy (memory + compute) attributed to this tenant by
          completion-time delta attribution; 0 unless energy accounting
          is on ({!Engine.Sched.set_energy} — memory energy accrues
          regardless, so this can be nonzero even without [--energy]).
          Growth not claimed by any completion lands in the registry
          gauge [serve.energy_overhead_uj]; tenant shares + overhead =
          machine growth exactly (checked under [check]) *)
  replicas : int;  (** configured redundancy degree *)
  divergences : int;
      (** replica groups whose tokens were not unanimous (equals injected
          corruptions consumed, absent a voting bug) *)
}

type report = {
  makespan_ns : float;
  tenant_reports : tenant_report list;  (** in configuration order *)
  registry : Metrics.t;
  stats : Engine.Stats.report;  (** machine-level fills, migrations, ... *)
}

val run : Harness.Systems.instance -> config -> report
(** Run the full serving experiment on a fresh instance.
    @raise Invalid_argument on an empty tenant list, an empty mix,
    [max_inflight < 1], non-positive weights/jobs, or a NaN, infinite or
    out-of-range SLO factor, open-loop rate or closed-loop think time. *)

(** An externally-driven serving session — the fleet tier's view of one
    machine.

    [run] above drives arrivals in-sim to completion; a [Session] instead
    lets a cluster router drive the machine epoch by epoch: {!Session.submit}
    pushes routed jobs through the shard's own admission control,
    {!Session.drain} advances the simulation dispatching only jobs that
    can start before a horizon (so queues persist across epochs under
    overload), and {!Session.drop_queued} pulls still-queued jobs back
    out for relocation when the shard degrades.  {!Session.finish} must
    be called exactly once, after a final drain with an infinite
    horizon. *)
module Session : sig
  type t

  type relocatable = {
    r_id : int;  (** cluster-unique job id, preserved across relocation *)
    r_tenant : int;  (** tenant index (fleet shards share the tenant list) *)
    r_kind : Job.kind;
    r_seed : int;
    r_submit_ns : float;  (** original arrival instant — latency is
                              measured from first submission, so a
                              relocated job pays for its detour *)
  }

  val create : ?share:t -> Harness.Systems.instance -> config -> t
  (** Prepare the datasets the tenant mixes use ({!Job.prepare}), price
      every mix kind once, and set up tenant ledgers and observability
      hooks; arrival processes in the config are ignored ([submit]
      drives arrivals).  With [share], another session on another
      machine with equal dataset config, the immutable datasets reuse
      its host arrays (a fleet builds them once).
      @raise Invalid_argument as {!run}. *)

  val submit :
    t -> tenant:int -> job_id:int -> arrival:float -> kind:Job.kind ->
    job_seed:int -> Admission.decision
  (** Offer one job to the shard's admission controller at virtual time
      [arrival].  Admitted jobs queue until the next {!drain}.
      @raise Invalid_argument on a tenant index out of range, or a kind
      whose dataset the session did not build (no tenant mix uses it). *)

  val drain : t -> horizon:float -> kick_ns:float -> unit
  (** Run the shard's scheduler until every dispatched job completes,
      dispatching only queued jobs whose start time (clamped to their
      arrival) is before [horizon].  [kick_ns] is the virtual time the
      dispatcher wakes (normally the epoch start).  No-op when nothing
      is queued. *)

  val drop_queued : t -> relocatable list
  (** Remove every still-queued (admitted, not dispatched) job, crediting
      each tenant's [relocated_out] ledger; in-flight and completed jobs
      are untouched.  The caller re-submits them elsewhere. *)

  val note_relocated_in : t -> tenant:int -> unit
  (** Record that the next [submit] for this tenant is a relocation
      (ledger only; out-of-range indices are ignored). *)

  val queue_length : t -> int
  val tenant_queue_depth : t -> tenant:int -> int

  val queued_cost : t -> float
  (** Estimated service demand queued on the shard (tenant depth x mean
      mix cost) — a router load signal. *)

  val backlog_ns : t -> float
  (** Max worker clock: how far the shard's virtual time has advanced. *)

  val cost_estimate : t -> Job.kind -> float
  (** {!Job.cost_estimate}, read from the session's per-kind table for
      the kinds of the tenant mixes. *)

  val registry : t -> Metrics.t
  val instance : t -> Harness.Systems.instance

  val finish : t -> report
  (** Tear down hooks, fold profiler/machine statistics into the registry
      and build the report; with [check] set, verifies the serving
      invariants including the relocation ledger
      ([completed + relocated_out = admitted]). *)
end

val report_to_json : report -> string
(** Deterministic JSON: run summary, per-tenant percentiles and SLO/shed
    counts, fill-location breakdown, and the full metrics registry. *)
