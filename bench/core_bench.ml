(* Core engine throughput: simulated events/sec and wall-clock for four
   standard scenarios — a batch morsel scan, an online serving run, a
   small fleet, and the same fleet serving task-DAG and TPC-H tenants.  This is the perf trajectory of the discrete-event core
   itself (scheduler event loop + per-access memory model): every PR runs
   [bench core --json] in CI and diffs events/sec against the committed
   BENCH_core.json baseline, so "measurably faster" (or slower) is visible
   per PR.

   A "simulated event" is one unit of discrete-event work the engine
   retired: a memory access charged through the machine model, a task
   quantum (context switch), a steal or a migration.  The count is
   deterministic per scenario (equal seeds), so only wall-clock varies
   across runs and machines; each scenario runs [reps] times on a fresh
   machine (cold caches, per the paper's methodology) and reports the best
   rep to damp scheduler noise.

   Each row also carries [alloc_words_per_event]: minor-heap words
   allocated in the timed part per simulated event.  Unlike wall-clock it
   repeats exactly for one build profile and compiler, so CI gates it
   tightly against the committed file.  The committed values come from
   the default dev profile, which CI uses; a release build allocates
   less (cross-module inlining unboxes more floats). *)

open Chipsim
module Sched = Engine.Sched
module Par = Engine.Par
module Sys_ = Harness.Systems
module Server = Serving.Server
module Cluster = Fleet.Cluster

let reps = 3
let cache_scale = 16

let engine_events machine =
  let pmu = Machine.pmu machine in
  Machine.accesses machine
  + Pmu.total pmu Pmu.Context_switch
  + Pmu.total pmu Pmu.Task_stolen
  + Pmu.total pmu Pmu.Migration

(* -- batch: morsel-driven scan + random updates + a fine-grain task storm
   on a bare scheduler (default hooks, no policy layer) — the least-
   advanced-worker loop, the deques and the per-access path with nothing
   else on top *)

let batch_rows = 1 lsl 19
let batch_scan_iters = 6
let batch_updates = 1 lsl 18
let batch_storm_tasks = 1 lsl 12

let run_batch () =
  let topo = Presets.amd_milan ~scale:cache_scale () in
  let machine = Machine.create topo in
  let sched = Sched.create machine ~n_workers:16 ~placement:(fun w -> w) in
  let region = Machine.alloc machine ~elt_bytes:8 ~count:batch_rows () in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  ignore
    (Sched.spawn sched ~worker:0 (fun ctx ->
         (* phase 1: sequential morsel scans (range path, prefetch-friendly) *)
         for _ = 1 to batch_scan_iters do
           Par.parallel_for ctx ~lo:0 ~hi:batch_rows ~grain:2048
             (fun ctx' lo hi ->
               Sched.Ctx.read_range ctx' region ~lo ~hi;
               Sched.Ctx.work ctx' (0.6 *. float_of_int (hi - lo));
               Sched.Ctx.maybe_yield ctx')
         done;
         (* phase 2: scattered read-modify-writes (single-access path,
            directory + coherence traffic) *)
         Par.parallel_for ctx ~lo:0 ~hi:batch_updates ~grain:512
           (fun ctx' lo hi ->
             for i = lo to hi - 1 do
               let j = i * 0x9e3779b9 land (batch_rows - 1) in
               Sched.Ctx.read ctx' region j;
               Sched.Ctx.write ctx' region j;
               Sched.Ctx.maybe_yield ctx'
             done);
         (* phase 3: storm of tiny compute tasks (deque + steal pressure) *)
         Par.parallel_for ctx ~lo:0 ~hi:(batch_storm_tasks * 16) ~grain:16
           (fun ctx' lo hi ->
             Sched.Ctx.work ctx' (5.0 *. float_of_int (hi - lo))))
      : Sched.task);
  let makespan = Sched.run sched in
  let wall = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  (engine_events machine, wall, makespan, words)

(* -- serve: the charm_serve configuration at a fixed load on one machine *)

let run_serve () =
  let inst = Sys_.make ~cache_scale Sys_.Charm (Util.machine Sys_.Amd_milan) ~n_workers:16 () in
  let base = Server.default_config ~seed:42 in
  let cfg =
    {
      base with
      Server.tenants =
        List.map
          (fun t ->
            {
              t with
              Server.process = Serving.Arrivals.Open_loop { rate_per_s = 10_000.0 };
            })
          base.Server.tenants;
    }
  in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = Server.run inst cfg in
  let wall = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  (engine_events inst.Sys_.machine, wall, r.Server.makespan_ns, words)

(* -- fleet: a small cluster (event counts multiplied by N shards) *)

let run_cluster tenants =
  let base = Cluster.default_config ~seed:42 in
  let serve = base.Cluster.serve in
  let tenants =
    List.map
      (fun t ->
        {
          t with
          Server.process = Serving.Arrivals.Open_loop { rate_per_s = 8_000.0 };
          jobs = 30;
        })
      (tenants serve.Server.tenants)
  in
  let cfg =
    {
      base with
      Cluster.n_shards = 2;
      machines = [ Util.machine Sys_.Amd_milan ];
      n_workers = 8;
      cache_scale;
      serve = { serve with Server.tenants; check = false };
    }
  in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let res = Cluster.run cfg in
  let wall = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let events =
    List.fold_left
      (fun acc (sr : Cluster.shard_result) -> acc + sr.Cluster.sim_events)
      0 res.Cluster.shard_results
  in
  (events, wall, res.Cluster.makespan_ns, words)

(* the default three tenants *)
let run_fleet () = run_cluster Fun.id

(* -- dag-fleet: the same cluster serving task-DAG inference (the DAG
   generator, mapper and edge transfers) next to TPC-H queries *)

let run_dag_fleet () =
  run_cluster (function
    | t :: _ ->
        let dag shape = (Serving.Job.Dag (shape, 6), 1) in
        let tpch q = (Serving.Job.Tpch q, 1) in
        [
          { t with Server.name = "infer"; weight = 2.0;
                   mix = List.map dag Taskgraph.Graph.all_shapes };
          { t with Server.name = "olap"; weight = 1.0; mix = List.map tpch [ 1; 3; 6 ] };
        ]
    | [] -> assert false)

let scenarios =
  [
    ("batch", run_batch);
    ("serve", run_serve);
    ("fleet", run_fleet);
    ("dag-fleet", run_dag_fleet);
  ]

(* [bench diff] against BENCH_core.json: event counts and makespans are
   deterministic (equal seeds), so any drift is a semantic change and
   fails.  events/sec is wall-clock and runner-dependent, so it gates
   loosely: a scenario running >20% slower fails.  Minor words per event
   repeat exactly for one compiler and build profile, so they gate
   tightly: more than 2% above the baseline fails. *)
let diff_schema =
  { Bench_diff.experiment = "core"; identity = [ "scenario" ];
    exact = [ "events"; "makespan_us" ]; info = [];
    gates = [ Min_ratio ("events_per_s", 0.8); Max_ratio ("alloc_words_per_event", 1.02) ] }

let run () =
  Util.section "Core - engine throughput (simulated events/sec per scenario)";
  Util.row "  %-9s %12s %9s %14s %12s %12s\n" "scenario" "events" "wall(s)"
    "events/sec" "makespan(us)" "words/event";
  List.iter
    (fun (name, f) ->
      let best = ref None in
      let events0 = ref 0 in
      for _ = 1 to reps do
        let events, wall, makespan, words = f () in
        if !events0 = 0 then events0 := events
        else if !events0 <> events then begin
          Printf.eprintf
            "bench core: %s event count not deterministic (%d vs %d)\n" name
            !events0 events;
          exit 1
        end;
        match !best with
        | Some (w, _, _) when w <= wall -> ()
        | _ -> best := Some (wall, makespan, words)
      done;
      let wall, makespan, words = Option.get !best in
      let eps = float_of_int !events0 /. Float.max 1e-9 wall in
      let words_per_event = words /. float_of_int !events0 in
      Util.row "  %-9s %12d %9.3f %14.0f %12.1f %12.4f\n" name !events0 wall eps
        (makespan /. 1e3) words_per_event;
      Util.json_row ~experiment:"core"
        [
          ("scenario", Engine.Json.str name);
          ("events", string_of_int !events0);
          ("wall_s", Util.json_num wall);
          ("events_per_s", Util.json_num eps);
          ("makespan_us", Util.json_num (makespan /. 1e3));
          ("alloc_words_per_event", Util.json_num words_per_event);
        ])
    scenarios
