(* fleet-dag: four CHARM shards alternating AMD Milan and big.LITTLE
   machines, 8 workers each, behind the charm-aware router with 250 us
   epochs.  A DAG-inference tenant (chain, inception and fanout task
   graphs, communication-aware mapper) and an OLAP tenant arrive open loop
   at 7k jobs/s each, 600 jobs per tenant; every core of shard 0 drops to
   quarter speed mid-run, so the router steers work away from it.  At 10k
   jobs/s the fleet runs near saturation and the share of jobs meeting
   their SLO swung by a quarter from seed to seed; at 7k it moves by a
   few percent.  It is
   the only workload that runs the router, the epoch loop, the DAG mapper
   and edge transfers on mixed-kind machines.  Per-shard work is uneven
   (Milan shards retire several times the events of big.LITTLE ones), so
   it is the test for shard-level parallelism.

   [Cluster.run] builds its shards itself, so set-up is measured by
   building the same four shard instances and sessions beforehand, and
   the timed part includes the cluster's own construction.  Shard
   machines are hidden inside [Cluster.run]: runtime-hook timings and
   runtime counters are not reachable from here. *)

module Sys_ = Harness.Systems
module Server = Serving.Server
module Cluster = Fleet.Cluster
module Histogram = Serving.Histogram
module Span = Perfbench_lib.Span
module Graph = Taskgraph.Graph
module Mapper = Taskgraph.Mapper

let shards = 4
let workers = 8
let cache_scale = 16
let rate_per_tenant = 7_000.0
let jobs_per_tenant = 600
let fault_at_us = 40_000.0
let dag_layers = 6
let dag_shapes = [ Graph.Chain; Graph.Inception; Graph.Fanout ]

(* examples/topologies/biglittle.topo, inlined so the benchmark reads no
   file outside its own directory *)
let biglittle =
  match
    Chipsim.Topology.of_string
      "sockets 2\n\
       chiplets-per-socket 4\n\
       cores-per-chiplet 4\n\
       chiplet-group-size 2\n\
       l3-bytes-per-chiplet 4MiB\n\
       l2-bytes-per-core 256KiB\n\
       line-bytes 64\n\
       mem-channels-per-socket 4\n\
       mem-bw-bytes-per-ns 4.8\n\
       chiplet-kinds big big little little big big little little\n"
  with
  | Ok topo -> Sys_.Custom { name = "biglittle"; topo }
  | Error msg -> failwith ("biglittle topology: " ^ msg)

let machines = [ Sys_.Amd_milan; biglittle ]

let tenants =
  let open_loop = Serving.Arrivals.Open_loop { rate_per_s = rate_per_tenant } in
  [
    {
      Server.name = "infer";
      weight = 2.0;
      slo_factor = 3.0;
      process = open_loop;
      jobs = jobs_per_tenant;
      mix = List.map (fun s -> (Serving.Job.Dag (s, dag_layers), 1)) dag_shapes;
      replicas = 1;
    };
    {
      Server.name = "olap";
      weight = 1.0;
      slo_factor = 3.0;
      process = open_loop;
      jobs = jobs_per_tenant;
      mix = [ (Serving.Job.Tpch 1, 1); (Serving.Job.Tpch 3, 1); (Serving.Job.Tpch 6, 1) ];
      replicas = 1;
    };
  ]

let config ~seed ~check =
  let base = Cluster.default_config ~seed in
  let serve = base.Cluster.serve in
  let shard0 = Sys_.topology Sys_.Amd_milan ~cache_scale in
  {
    base with
    Cluster.n_shards = shards;
    machines;
    n_workers = workers;
    cache_scale;
    policy = Fleet.Router.Charm_aware;
    epoch_us = 250.0;
    serve =
      {
        serve with
        Server.tenants;
        data = { serve.Server.data with Serving.Job.dag_comm_aware = true };
        check;
      };
    faults =
      [
        ( 0,
          List.init (Chipsim.Topology.num_cores shard0) (fun core ->
              {
                Faults.Schedule.at_ns = fault_at_us *. 1e3;
                kind = Faults.Schedule.Dvfs { core; speed = 0.25 };
              }) );
      ];
  }

let prepare ~seed ~check tracer =
  let cfg = config ~seed ~check in
  for s = 0 to shards - 1 do
    let inst =
      Span.with_ tracer "harness.make" (fun () ->
          Sys_.make ~cache_scale Sys_.Charm
            (List.nth machines (s mod List.length machines))
            ~n_workers:workers ())
    in
    ignore
      (Span.with_ tracer "workloads.dataset" (fun () ->
           Server.Session.create inst cfg.Cluster.serve)
        : Server.Session.t)
  done;
  fun () ->
    let res, run_s, alloc_words, probe_ns =
      Pass.timed (fun () -> Span.with_ tracer "fleet.run" (fun () -> Cluster.run cfg))
    in
    let shard_reports =
      List.map (fun (sr : Cluster.shard_result) -> sr.Cluster.report) res.Cluster.shard_results
    in
    let tenant_reports =
      List.concat_map (fun (r : Server.report) -> r.Server.tenant_reports) shard_reports
    in
    let sum f = List.fold_left (fun acc tr -> acc + f tr) 0 tenant_reports in
    let completed = sum (fun tr -> tr.Server.completed)
    and admitted = sum (fun tr -> tr.Server.admitted)
    and shed = sum (fun tr -> tr.Server.shed)
    and violations = sum (fun tr -> tr.Server.slo_violations) in
    let offered = List.length tenants * jobs_per_tenant in
    let errors =
      Span.with_ tracer "bench.check" (fun () ->
          (match Cluster.check_result res with
          | () -> []
          | exception Chipsim.Invariant.Violation msg -> [ "Cluster.check_result: " ^ msg ])
          @
          if res.Cluster.router_submitted = offered then []
          else [ Printf.sprintf "%d jobs offered, router saw %d" offered res.Cluster.router_submitted ])
    in
    let shard_events =
      List.map (fun (sr : Cluster.shard_result) -> sr.Cluster.sim_events) res.Cluster.shard_results
    in
    let events = List.fold_left ( + ) 0 shard_events in
    let energy_pj =
      List.fold_left
        (fun acc (r : Server.report) ->
          acc
          +. ((r.Server.stats.Engine.Stats.energy_uj +. r.Server.stats.Engine.Stats.compute_energy_uj)
             *. 1e6))
        0.0 shard_reports
    in
    let queue_wait = Histogram.create () in
    List.iter (fun (tr : Server.tenant_report) -> Histogram.merge queue_wait tr.Server.queue_wait) tenant_reports;
    let max_events = List.fold_left max 0 shard_events in
    {
      Pass.events;
      run_s;
      alloc_words;
      probe_ns;
      makespan_ns = res.Cluster.makespan_ns;
      attempted = offered;
      failed = offered - completed;
      good = completed - violations;
      energy_pj;
      latency = Some res.Cluster.fleet_latency;
      queue_wait = Some queue_wait;
      fingerprint =
        Perfbench_lib.Stats.fingerprint ~events ~makespan_ns:res.Cluster.makespan_ns
          ~outputs:(res.Cluster.placement_log ^ Serving.Metrics.json_of_histogram res.Cluster.fleet_latency);
      counts =
        Pass.machine_counts (List.map (fun (r : Server.report) -> r.Server.stats) shard_reports)
        @ [
            ("serve.admitted", float_of_int admitted);
            ("serve.shed", float_of_int shed);
            ("fleet.epochs", float_of_int res.Cluster.epochs);
            ("fleet.relocations", float_of_int res.Cluster.relocations);
            ("fleet.router_shed", float_of_int res.Cluster.router_shed);
            ( "fleet.shard_event_imbalance",
              float_of_int max_events *. float_of_int shards /. float_of_int (max 1 events) );
          ];
      errors;
    }

(* The mapper probe: map this workload's DAG mix onto each shard
   topology, as every DAG job does when it starts.  Returns the calls
   made, the cross-chiplet bytes of the mappings, and any mapping whose
   recorded cross bytes disagree with [Mapper.cross_bytes]. *)
let probe_mapper tracer ~seed =
  let calls = ref 0 and bytes = ref 0 and errors = ref [] in
  List.iter
    (fun m ->
      let topo = Sys_.topology m ~cache_scale in
      List.iter
        (fun shape ->
          for k = 0 to 15 do
            let g = Graph.generate ~shape ~layers:dag_layers ~seed:(seed + k) () in
            let mapped, cross =
              Span.with_ (Some tracer) "taskgraph.map" (fun () ->
                  let mapped = Mapper.map topo ~policy:Mapper.Comm_aware g in
                  (mapped, Mapper.cross_bytes g ~assign:mapped.Mapper.assign))
            in
            incr calls;
            bytes := !bytes + cross;
            if cross <> mapped.Mapper.cross_bytes then
              errors := Printf.sprintf "mapper cross bytes %d vs %d" mapped.Mapper.cross_bytes cross :: !errors
          done)
        dag_shapes)
    machines;
  (!calls, !bytes, List.rev !errors)
