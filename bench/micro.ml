(* Micro-benchmarks of the runtime primitives (real nanoseconds): the
   coroutine switch, Alg. 2 placement computation, the machine-model
   access path, and the per-event primitives the serve path leans on (an
   Rng draw, a hash-aggregation row, a health-monitor observation).  These
   back the paper's claim that user-space task switching is orders of
   magnitude cheaper than kernel threads.

   Every case is timed twice in the same run: bechamel's OLS estimate,
   and a plain timed loop that also reports minor words per op.  The two
   should agree to within tens of percent.  bechamel's default
   [~stabilize:true] compacts the heap before every sample; with the
   machine models alive that compaction eats most of the quota, so only
   short, cache-cold samples remain and the estimate came out 30-150x too
   high.  Stabilisation is therefore off. *)

open Bechamel
open Toolkit
open Chipsim

let coroutine_spawn () =
  let c = Engine.Coroutine.create (fun () -> ()) in
  ignore (Engine.Coroutine.resume c)

let coroutine_switch =
  (* one yield + one resume = two context switches *)
  let c =
    Engine.Coroutine.create (fun () ->
        while true do
          Engine.Coroutine.yield ()
        done)
  in
  fun () -> ignore (Engine.Coroutine.resume c)

let placement =
  let topo = Presets.amd_milan () in
  let i = ref 0 in
  fun () ->
    i := (!i + 1) land 63;
    ignore (Charm.Placement.core_of_worker topo ~spread_rate:8 ~n_workers:64 ~worker:!i)

let latency_classify =
  let topo = Presets.amd_milan () in
  let i = ref 0 in
  fun () ->
    i := (!i + 17) land 127;
    ignore (Latency.core_to_core_ns topo 0 !i)

let cache_hit =
  let cache = Cache.create ~size_bytes:(1 lsl 20) ~line_bytes:64 () in
  ignore (Cache.access cache 42);
  fun () -> ignore (Cache.access cache 42)

let machine_access =
  let machine = Machine.create (Presets.amd_milan ()) in
  let region = Machine.alloc machine ~elt_bytes:8 ~count:64 () in
  ignore (Machine.touch machine ~core:0 ~now_ns:0.0 ~write:false region 0);
  fun () -> ignore (Machine.touch machine ~core:0 ~now_ns:0.0 ~write:false region 0)

let rng_int =
  let rng = Engine.Rng.create 42 in
  fun () -> ignore (Engine.Rng.int rng 1_000_000)

(* One TPC-H Q1-shaped row update: eight groups of five slots, the
   bucket read and write charged through a worker context. *)
let hash_agg_row =
  let machine = Machine.create (Presets.amd_milan ()) in
  let sched = Engine.Sched.create machine ~n_workers:1 ~placement:(fun w -> w) in
  let ctx = ref None in
  ignore (Engine.Sched.spawn sched ~worker:0 (fun c -> ctx := Some c) : Engine.Sched.task);
  ignore (Engine.Sched.run sched : float);
  let ctx = Option.get !ctx in
  let alloc ~elt_bytes ~count = Machine.alloc machine ~elt_bytes ~count () in
  let agg = Olap.Exec.Hash_agg.create ~alloc ~expected:8 ~width:5 in
  let i = ref 0 in
  fun () ->
    i := (!i + 1) land 7;
    let a = Olap.Exec.Hash_agg.row ctx agg ~key:!i in
    a.(0) <- a.(0) +. 1.0;
    a.(4) <- a.(4) +. 1.0

(* A quantum-end observation as the CHARM hook makes it: four workers on
   four chiplets in turn, each charged 16 L2 hits since its last sample
   (the monitor's minimum delta), so every call judges a chiplet. *)
let health_observe =
  let machine = Machine.create (Presets.amd_milan ()) in
  let monitor = Charm.Health_monitor.create machine ~n_workers:4 in
  let now = [| 0.0 |] and i = ref 0 in
  fun () ->
    i := (!i + 1) land 3;
    let core = !i * 8 in
    for line = 0 to 15 do
      now.(0) <-
        now.(0) +. Machine.access_line machine ~core ~now_ns:now.(0) ~write:false ~line
    done;
    Charm.Health_monitor.observe monitor ~worker:!i ~core ~now:now.(0)

let cases =
  [
    ("coroutine create+run", coroutine_spawn);
    ("coroutine yield/resume", coroutine_switch);
    ("alg2 core_of_worker", placement);
    ("latency classify", latency_classify);
    ("cache hit lookup", cache_hit);
    ("machine access (L2 hit)", machine_access);
    ("rng int", rng_int);
    ("hash_agg row", hash_agg_row);
    ("health observe (+16 L2 hits)", health_observe);
  ]

let bechamel_ns () =
  let tests =
    Test.make_grouped ~name:"micro"
      (List.map (fun (name, op) -> Test.make ~name (Staged.stage op)) cases)
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:false ~quota:(Time.second 0.25)
      ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  fun name ->
    match Hashtbl.find_opt results ("micro/" ^ name) with
    | Some r -> (
        match Analyze.OLS.estimates r with Some (t :: _) -> t | _ -> Float.nan)
    | None -> Float.nan

(* Plain timed loop: batches of calls until [loop_seconds] have passed;
   host ns and minor words per call over the whole run. *)
let loop_seconds = 0.25
let loop_batch = 1000

let plain_loop op =
  let calls = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < loop_seconds do
    for _ = 1 to loop_batch do
      op ()
    done;
    calls := !calls + loop_batch
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let n = float_of_int !calls in
  (elapsed *. 1e9 /. n, words /. n)

let run () =
  Util.section "Micro-benchmarks (real nanoseconds per op; two timers, one run)";
  let bechamel = bechamel_ns () in
  Util.row "  %-30s %12s %12s %10s %9s\n" "case" "bechamel ns" "loop ns" "words/op"
    "ratio";
  List.iter
    (fun (name, op) ->
      let loop_ns, words = plain_loop op in
      let b = bechamel name in
      Util.row "  %-30s %12.1f %12.1f %10.2f %9.2f\n" name b loop_ns words
        (b /. loop_ns))
    cases
