(* Fleet mode: cluster tail latency vs offered load, CHARM-aware routing
   vs chiplet-blind policies.  The paper's heterogeneity argument lifted
   one level: when a machine in the fleet degrades mid-run (every core of
   shard 0 throttled to quarter speed), a router that reads per-shard
   capacity and sick-chiplet fractions steers new and relocated jobs away
   immediately, while least-loaded only reacts once queues back up and
   round-robin never reacts at all.  Traffic is diurnal with one hot
   tenant, so the router is exercised across the load swing. *)

module Sys_ = Harness.Systems
module Server = Serving.Server
module Histogram = Serving.Histogram
module Metrics = Serving.Metrics
module Cluster = Fleet.Cluster
module Router = Fleet.Router
module Schedule = Faults.Schedule

let seed = 42
let n_shards = 4
let n_workers = 16
let cache_scale = 16
let jobs_per_tenant = 90
let fault_at_us = 400.0

let policies =
  [
    (Router.Round_robin, "round-robin");
    (Router.Least_loaded, "least-loaded");
    (Router.Charm_aware, "charm");
  ]

(* per-tenant offered load; the hot tenant runs at twice this *)
let rates = [ 4_000.0; 8_000.0; 16_000.0 ]

(* shard 0 limps from [fault_at_us]: every core throttled to quarter
   speed — the machine-level analogue of the sick-chiplet scenario.
   Mild faults (a few cores offline) barely dent a 128-core machine's
   online capacity, so the bench uses a degradation heavy enough to
   cross the relocation threshold. *)
let shard0_fault =
  let topo = Sys_.topology (Util.machine Sys_.Amd_milan) ~cache_scale in
  List.init (Chipsim.Topology.num_cores topo) (fun core ->
      {
        Schedule.at_ns = fault_at_us *. 1e3;
        kind = Schedule.Dvfs { core; speed = 0.25 };
      })

let config ~policy ~rate =
  let base = Cluster.default_config ~seed in
  let serve = base.Cluster.serve in
  let tenants =
    List.mapi
      (fun i t ->
        let r = if i = 0 then 2.0 *. rate else rate in
        {
          t with
          Server.process = Serving.Arrivals.Open_loop { rate_per_s = r };
          jobs = jobs_per_tenant;
        })
      serve.Server.tenants
  in
  {
    base with
    Cluster.n_shards;
    machines = [ Util.machine Sys_.Amd_milan ];
    n_workers;
    cache_scale;
    policy;
    serve = { serve with Server.tenants; check = false };
    diurnal_amplitude = 0.6;
    faults = [ (0, shard0_fault) ];
  }

let sum_tenants f (res : Cluster.result) =
  List.fold_left
    (fun acc (sr : Cluster.shard_result) ->
      List.fold_left
        (fun acc (tr : Server.tenant_report) -> acc + f tr)
        acc sr.Cluster.report.Server.tenant_reports)
    0 res.Cluster.shard_results

let run_one ~policy ~rate =
  let t0 = Unix.gettimeofday () in
  let res = Cluster.run (config ~policy ~rate) in
  (res, Unix.gettimeofday () -. t0)

(* [bench diff] against BENCH_fleet.json: job outcomes, relocations and
   the makespan are simulated and must reproduce on equal seeds; tail
   latency and wall-clock are printed *)
let diff_schema =
  { Bench_diff.experiment = "fleet"; identity = [ "policy"; "rate_per_tenant" ];
    exact = [ "completed"; "shed"; "relocations"; "makespan_us" ]; info = [ "p99_us"; "wall_s" ];
    gates = [] }

let run () =
  Util.section
    (Printf.sprintf
       "Fleet - cluster p99 vs load (%d shards, shard 0 faulted at %.0fus, \
        diurnal, hot tenant)"
       n_shards fault_at_us);
  Util.row "  %-10s | %-12s %9s %9s %6s %6s %6s %7s\n" "rate/tenant" "router"
    "p50(us)" "p99(us)" "done" "shed" "reloc" "wall(s)";
  let p99s = Hashtbl.create 16 in
  List.iter
    (fun rate ->
      List.iter
        (fun (policy, name) ->
          let res, wall = run_one ~policy ~rate in
          let h = res.Cluster.fleet_latency in
          let completed = sum_tenants (fun tr -> tr.Server.completed) res in
          let shed =
            res.Cluster.router_shed
            + sum_tenants (fun tr -> tr.Server.shed) res
          in
          let p99 = Histogram.p99 h in
          Hashtbl.replace p99s (rate, name) p99;
          let work =
            Metrics.counter_value res.Cluster.registry "serve.work_items"
          in
          Util.row "  %-10.0f | %-12s %9.1f %9.1f %6d %6d %6d %7.2f\n" rate
            name
            (Histogram.p50 h /. 1e3)
            (p99 /. 1e3) completed shed res.Cluster.relocations wall;
          Util.json_row ~experiment:"fleet"
            [
              ("policy", Engine.Json.str name);
              ("rate_per_tenant", Util.json_num rate);
              ("shards", string_of_int n_shards);
              ("p50_us", Util.json_num (Histogram.p50 h /. 1e3));
              ("p99_us", Util.json_num (p99 /. 1e3));
              ("completed", string_of_int completed);
              ("shed", string_of_int shed);
              ("relocations", string_of_int res.Cluster.relocations);
              ("makespan_us", Util.json_num (res.Cluster.makespan_ns /. 1e3));
              ("wall_s", Util.json_num wall);
              ( "sim_work_items_per_s",
                Util.json_num (float_of_int work /. Float.max 1e-9 wall) );
            ])
        policies;
      Util.row "\n")
    rates;
  (* the headline claim: with a degraded machine in the fleet, the
     chiplet-aware router must hold a lower cluster p99 than both blind
     policies at every offered load *)
  let verdict =
    List.for_all
      (fun rate ->
        let p name = Hashtbl.find p99s (rate, name) in
        p "charm" < p "least-loaded" && p "charm" < p "round-robin")
      rates
  in
  Util.row "  VERDICT: charm-aware routing %s blind policies on p99 %s\n"
    (if verdict then "beats" else "DOES NOT beat")
    (if verdict then "at every offered load" else "(regression!)");
  Util.json_row ~experiment:"fleet"
    [ ("verdict_charm_beats_blind", if verdict then "true" else "false") ];
  if not verdict then exit 1
