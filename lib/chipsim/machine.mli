(** The simulated chiplet machine: caches + coherence + DRAM + PMU behind a
    single access call.

    Every memory access made by a simulated core returns the latency it
    would have cost on the modelled hardware, and increments the PMU
    counter classifying the source that served it (local L3 slice, remote
    chiplet, remote socket, or DRAM) — the same signal CHARM's profiler
    reads from hardware counters on real machines. *)

type t

val create : ?profile:Latency.profile -> Topology.t -> t
val topology : t -> Topology.t
val profile : t -> Latency.profile
val pmu : t -> Pmu.t
val mem : t -> Simmem.t

val modifiers : t -> Modifiers.t
(** Dynamic fault state (DVFS factors, offline cores, link/cross-socket
    latency multipliers).  Writing it changes the latencies and PMU fill
    classes of subsequent accesses; the scheduler reads it to scale
    quantum progress and honour offline cores. *)

val set_l3_ways : t -> chiplet:int -> ways:int -> unit
(** Degrade (or restore) a chiplet's L3 to [ways] enabled ways (see
    {!Cache.set_effective_ways}). *)

val l3_ways : t -> chiplet:int -> int

val set_mem_capacity_factor : t -> node:int -> float -> unit
(** Throttle a NUMA node's deliverable memory bandwidth (see
    {!Memchan.set_capacity_factor}). *)

val alloc :
  t -> ?policy:Simmem.policy -> elt_bytes:int -> count:int -> unit ->
  Simmem.region
(** Allocate simulated memory (see {!Simmem.alloc}). *)

val access : t -> core:int -> now_ns:float -> write:bool -> int -> float
(** [access t ~core ~now_ns ~write addr] simulates one memory access and
    returns its latency in virtual nanoseconds. *)

val access_line :
  t -> core:int -> now_ns:float -> write:bool -> line:int -> float
(** Same, when the caller already knows the line id. *)

val touch :
  t -> core:int -> now_ns:float -> write:bool -> Simmem.region -> int -> float
(** Access element [i] of a region. *)

val touch_range :
  t -> core:int -> now_ns:float -> write:bool -> Simmem.region ->
  lo:int -> hi:int -> float
(** Sequentially access elements [lo, hi) of a region, touching each covered
    cache line exactly once.  Returns the summed latency. *)

val access_clk : t -> core:int -> write:bool -> int -> float array -> int -> unit
(** [access_clk t ~core ~write addr clk slot] simulates one access at
    virtual time [clk.(slot)] and advances [clk.(slot)] by its latency.
    Charging the caller's clock cell in place keeps boxed floats off the
    per-access path (the float-returning {!access} is a wrapper over
    this); the scheduler passes each worker's clock cell directly. *)

val touch_range_clk :
  t -> core:int -> write:bool -> Simmem.region -> lo:int -> hi:int ->
  float array -> int -> unit
(** Clock-cell variant of {!touch_range}: advances [clk.(slot)] by the
    summed (prefetch-discounted) latency of the range. *)

val transfer :
  t -> src_chiplet:int -> dst_chiplet:int -> now_ns:float -> bytes:int ->
  float
(** [transfer t ~src_chiplet ~dst_chiplet ~now_ns ~bytes] simulates a bulk
    chiplet-to-chiplet data movement (a task-graph edge) and returns its
    latency in virtual ns.  Bytes round up to whole cache lines.  Within
    one chiplet the payload stays in the local L3 and costs a single
    same-chiplet hop; across chiplets it pays the distance-classified base
    latency (times the cross-socket fault multiplier where applicable)
    plus serialization and contention on {e both} endpoints' I/O-die links
    via {!Memchan.charge_lines}, the slower leg dominating.  [bytes = 0]
    is free.
    @raise Invalid_argument on out-of-range chiplets or negative bytes. *)

val core_to_core_ns : t -> int -> int -> float
val dram_load_ratio : t -> node:int -> now_ns:float -> float
val dram_bytes_served : t -> node:int -> int

val mem_ns : t -> core:int -> float
(** Accumulated memory-access latency this core has been charged, in
    virtual ns — a "latency PMU" companion to the fill-event counters.
    Dividing its delta by the fill-count delta gives average latency per
    access, which degradation faults (link, L3 ways, bandwidth) inflate
    directly while compute time and scheduling delays leave it untouched;
    {!Core.Health_monitor} feeds on exactly that ratio. *)

val energy_pj : t -> core:int -> float
(** Accumulated access energy charged to this core, in picojoules: each
    simulated access costs its core kind's [energy_pj] (see
    {!Topology.kind_spec}).  Zeroed by {!reset}. *)

val total_energy_pj : t -> float
(** Sum of {!energy_pj} over all cores — {e memory-access energy only}.
    Per-quantum compute energy deliberately accumulates in a separate
    meter ({!compute_energy_pj}), so this total — and every figure built
    on it before compute charging existed — is bit-identical whether or
    not [--energy] is on. *)

val charge_quantum : t -> core:int -> dt_ns:float -> dvfs:float -> unit
(** Charge [dt_ns] virtual ns of compute on [core] to its compute-energy
    meter: [dt_ns x kind_energy_pj x kind_speed x dvfs^2] pJ.  The
    quadratic DVFS term makes power (energy over time) scale roughly
    cubically with frequency, so shedding frequency is an effective
    power-cap actuator.  Never touches virtual time; the scheduler calls
    this at quantum end only when energy accounting is enabled. *)

val compute_energy_pj : t -> core:int -> float
(** Accumulated per-quantum compute energy charged to this core, in
    picojoules.  Zeroed by {!reset}. *)

val total_compute_energy_pj : t -> float
(** Sum of {!compute_energy_pj} over all cores. *)

val combined_energy_pj : t -> float
(** {!total_energy_pj} + {!total_compute_energy_pj}: the machine's whole
    energy story, what power estimates and per-tenant attribution use. *)

val chiplet_energy_pj : t -> chiplet:int -> float
(** Combined (access + compute) energy accumulated by the chiplet's
    cores, in picojoules — the per-chiplet signal the power-cap
    controller differentiates into a sliding-window power estimate.
    @raise Invalid_argument on an out-of-range chiplet. *)

val accesses : t -> int
(** Total simulated accesses ({!access_line} calls) since creation or
    {!reset}.  Every one is classified into exactly one PMU fill-source
    counter — the conservation law {!check_invariants} verifies. *)

val check_invariants : t -> unit
(** Cheap structural checks (O(cores) + O(chiplets)): the six fill-source
    PMU counters sum to {!accesses}, every chiplet's effective L3 ways lie
    in [1, ways] under {!Modifiers} degradation, and the per-core latency
    meters are finite and non-negative.  Cheap enough to run every few
    quanta when [~check:true] scheduling is on.
    @raise Invariant.Violation describing the first broken invariant. *)

val check_invariants_full : t -> unit
(** {!check_invariants} plus the O(nodes x slots) {!Memchan} ring scans of
    the DRAM channels and the chiplet I/O-die links — end-of-run and
    fuzzer verification.
    @raise Invariant.Violation describing the first broken invariant. *)

val flush_caches : t -> unit
(** Drop all cached state (caches, directory, channel history) but keep
    page placements and PMU counters. *)

val reset : t -> unit
(** Full reset: caches, directory, channels, page placements, PMU. *)
