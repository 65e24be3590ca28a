(** Seeded end-to-end scenarios for the fuzzing harness.

    A scenario is a complete, CLI-expressible experiment: a system, a
    preset machine, a worker count, an optional fault schedule (drawn
    through the {!Faults.Schedule} spec grammar so it renders back to a
    [--faults] string) and either a batch workload or a multi-tenant
    serving mix.  {!generate} draws one deterministically from a seed
    (qcheck-core generators over {!Harness.Systems.topology} bounds);
    {!check} runs it with invariants on and applies the oracles;
    {!shrink} proposes strictly simpler variants; {!to_repro} prints the
    ready-to-paste [charm_run]/[charm_serve] command line. *)

type batch_workload = Bfs | Pagerank | Tpch of int | Gups

type tenant = {
  tname : string;
  tweight : float;
  tkinds : Serving.Job.kind list;
  treplicas : int;  (** replicated-execution degree (1 = none) *)
}

type serve_params = {
  rate_per_s : float;
  jobs : int;  (** per tenant *)
  max_inflight : int;
  queue_bound : int;
  serve_graph_scale : int;
  senergy_weight : float;
      (** CHARM's EDP-aware placement weight; > 0 also turns the
          per-quantum compute-energy meter on *)
  spower_cap_mw : float;
      (** machine power cap in simulated mW (pJ/ns); > 0 arms the
          {!Charm.Power_cap} controller under CHARM systems *)
  tenants : tenant list;
}

type fleet_params = {
  shards : int;
  fpolicy : Fleet.Router.policy;
  fepoch_us : float;
  fdiurnal : float;  (** 0 = flat Poisson arrivals *)
  frelocation : bool;
  fshard_faults : (int * Faults.Schedule.t) list;
      (** per-shard machine-level fault schedules *)
  fserve : serve_params;  (** the per-shard serving template *)
}

type kind =
  | Batch of { workload : batch_workload; graph_scale : int }
  | Serve of serve_params
  | Fleet of fleet_params
      (** a whole cluster run ({!Fleet.Cluster}): routing, relocation and
          conservation checked across shards, with the placement log part
          of the determinism oracle's subject.  The top-level [faults]
          field is empty for fleet scenarios — schedules live per shard in
          [fshard_faults]. *)

type t = {
  seed : int;
  sys : Harness.Systems.sys;
  machine : Harness.Systems.machine_kind;
  cache_scale : int;
  workers : int;
  faults : Faults.Schedule.t;
  kind : kind;
}

type mode = Smoke | Deep
(** [Smoke] draws small scenarios (CI gate); [Deep] widens every range
    (nightly fuzz). *)

val generate : mode:mode -> seed:int -> t
(** Deterministic: same [mode] and [seed] always yield the same scenario. *)

type failure = {
  oracle : string;
      (** ["invariant"], ["determinism/report"], ["determinism/trace"],
          ["reference/..."] or ["crash"] *)
  detail : string;
}

val check : t -> failure option
(** Run the scenario end-to-end with invariants on and apply the oracles:
    two fresh runs must produce byte-identical reports, traces and
    functional digests, and batch functional results must match a
    sequential / single-worker reference.  [None] means every oracle
    passed. *)

val shrink : t -> t list
(** Strictly simpler candidate scenarios, most aggressive first (drop the
    fault schedule, halve it, drop single events, reduce workers, shrink
    the workload, collapse tenants, then normalise machine / system /
    cache scale).  Every candidate differs from [t]. *)

val describe : t -> string
(** One-line summary for fuzzer progress output. *)

val to_repro : t -> string
(** The [charm_run] / [charm_serve] invocation (with [--check],
    [--faults] and the active [--plant], if any) that replays this
    scenario outside the fuzzer. *)
