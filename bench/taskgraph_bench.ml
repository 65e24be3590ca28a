(* Task-graph serving: inference tail latency vs offered load on a
   heterogeneous machine, communication-aware DAG mapping vs the blind
   round-robin baseline.  An inference tenant submits generated DNN task
   DAGs (chain / inception / microservice-fanout shapes) alongside an
   OLAP tenant, on a machine mixing big, little and accelerator-only
   chiplets behind a slow link.  The comm-aware mapper contracts heavy
   edges into one chiplet and steers dense clusters to the accelerator,
   so it should hold a lower inference p99 than blind mapping at every
   offered load. *)

module Sys_ = Harness.Systems
module Server = Serving.Server
module Histogram = Serving.Histogram
module Job = Serving.Job
module Mapper = Taskgraph.Mapper
module Graph = Taskgraph.Graph

let seed = 42
let n_workers = 8
let cache_scale = 16
let jobs_per_tenant = 40

(* the tiny-hetero preset as an inline spec, so the bench does not depend
   on the working directory (examples/topologies/tiny-hetero.topo is the
   same machine as a file) *)
let hetero_topology =
  "sockets 1; chiplets-per-socket 4; cores-per-chiplet 2; \
   chiplet-group-size 2; l3-bytes-per-chiplet 16KiB; l2-bytes-per-core \
   4KiB; line-bytes 64; mem-channels-per-socket 2; mem-bw-bytes-per-ns \
   4.8; chiplet-kinds big big little accel; link 3 lat-mult 1.5 bw 2"

let hetero_machine =
  match Sys_.custom_machine_of_spec hetero_topology with
  | Ok m -> m
  | Error msg -> failwith ("taskgraph bench: bad inline topology: " ^ msg)

let mappers = [ (Mapper.Blind, "blind"); (Mapper.Comm_aware, "comm-aware") ]

(* per-tenant offered load (jobs/s of virtual time) *)
let rates = [ 1_000.0; 2_000.0; 4_000.0 ]

let infer_mix =
  [
    (Job.Dag (Graph.Chain, 4), 2);
    (Job.Dag (Graph.Inception, 3), 1);
    (Job.Dag (Graph.Fanout, 4), 1);
  ]

let olap_mix = [ (Job.Tpch 1, 1); (Job.Tpch 3, 1); (Job.Tpch 6, 1) ]

let config ~comm_aware ~rate =
  let tenant name weight mix =
    {
      Server.name;
      weight;
      slo_factor = 3.0;
      process = Serving.Arrivals.Open_loop { rate_per_s = rate };
      jobs = jobs_per_tenant;
      mix;
      replicas = 1;
    }
  in
  {
    Server.tenants = [ tenant "infer" 2.0 infer_mix; tenant "olap" 1.0 olap_mix ];
    admission =
      { Serving.Admission.max_queue_per_tenant = 64; max_global_queue = 256 };
    max_inflight = 4;
    seed;
    data =
      {
        Job.graph_scale = 8;
        dag_comm_aware = comm_aware;
        seed = seed + 1;
      };
    trace = None;
    on_complete = None;
    check = false;
  }

(* same definition of a simulated event as [bench core]: accesses charged
   through the machine model plus scheduler events *)
let engine_events machine =
  let open Chipsim in
  let pmu = Machine.pmu machine in
  Machine.accesses machine
  + Pmu.total pmu Pmu.Context_switch
  + Pmu.total pmu Pmu.Task_stolen
  + Pmu.total pmu Pmu.Migration

let run_one ~comm_aware ~rate =
  let inst = Sys_.make ~cache_scale Sys_.Charm hetero_machine ~n_workers () in
  Util.attach_trace inst;
  let t0 = Unix.gettimeofday () in
  let report = Server.run inst (config ~comm_aware ~rate) in
  (report, engine_events inst.Sys_.machine, Unix.gettimeofday () -. t0)

let tenant_report (report : Server.report) name =
  List.find
    (fun (tr : Server.tenant_report) -> tr.Server.tenant = name)
    report.Server.tenant_reports

(* [bench diff] against BENCH_taskgraph.json: event-count drift is a
   semantic change and fails; tail latency and wall-clock are printed *)
let diff_schema =
  { Bench_diff.experiment = "taskgraph"; identity = [ "mapper"; "rate_per_tenant" ];
    exact = [ "events" ]; info = [ "infer_p99_us"; "wall_s" ];
    gates = [] }

let run () =
  Util.section
    (Printf.sprintf
       "Taskgraph - inference p99 vs load (hetero machine, %d workers, DAG \
        tenant + OLAP tenant)"
       n_workers);
  Util.row "  %-10s | %-10s %9s %9s %9s %6s %6s %10s %7s\n" "rate/tenant"
    "mapper" "p50(us)" "p99(us)" "olap-p99" "done" "shed" "events" "wall(s)";
  let p99s = Hashtbl.create 16 in
  List.iter
    (fun rate ->
      List.iter
        (fun (policy, name) ->
          let comm_aware = policy = Mapper.Comm_aware in
          let report, events, wall = run_one ~comm_aware ~rate in
          let infer = tenant_report report "infer" in
          let olap = tenant_report report "olap" in
          let p99 = Histogram.p99 infer.Server.latency in
          Hashtbl.replace p99s (rate, name) p99;
          let completed =
            List.fold_left
              (fun acc (tr : Server.tenant_report) -> acc + tr.Server.completed)
              0 report.Server.tenant_reports
          in
          let shed =
            List.fold_left
              (fun acc (tr : Server.tenant_report) -> acc + tr.Server.shed)
              0 report.Server.tenant_reports
          in
          Util.row "  %-10.0f | %-10s %9.1f %9.1f %9.1f %6d %6d %10d %7.2f\n"
            rate name
            (Histogram.p50 infer.Server.latency /. 1e3)
            (p99 /. 1e3)
            (Histogram.p99 olap.Server.latency /. 1e3)
            completed shed events wall;
          Util.json_row ~experiment:"taskgraph"
            [
              ("mapper", Engine.Json.str name);
              ("rate_per_tenant", Util.json_num rate);
              ("workers", string_of_int n_workers);
              ( "infer_p50_us",
                Util.json_num (Histogram.p50 infer.Server.latency /. 1e3) );
              ("infer_p99_us", Util.json_num (p99 /. 1e3));
              ( "olap_p99_us",
                Util.json_num (Histogram.p99 olap.Server.latency /. 1e3) );
              ("completed", string_of_int completed);
              ("shed", string_of_int shed);
              ("events", string_of_int events);
              ("makespan_us", Util.json_num (report.Server.makespan_ns /. 1e3));
              ("wall_s", Util.json_num wall);
            ])
        mappers;
      Util.row "\n")
    rates;
  (* the headline claim: on a heterogeneous machine the comm-aware mapper
     must hold a lower inference p99 than blind mapping at every load *)
  let verdict =
    List.for_all
      (fun rate ->
        Hashtbl.find p99s (rate, "comm-aware") < Hashtbl.find p99s (rate, "blind"))
      rates
  in
  Util.row "  VERDICT: comm-aware mapping %s blind mapping on inference p99 %s\n"
    (if verdict then "beats" else "DOES NOT beat")
    (if verdict then "at every offered load" else "(regression!)");
  Util.json_row ~experiment:"taskgraph"
    [ ("verdict_comm_aware_beats_blind", if verdict then "true" else "false") ];
  if not verdict then exit 1
