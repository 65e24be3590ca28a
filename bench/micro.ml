(* Bechamel micro-benchmarks of the runtime primitives (real nanoseconds):
   the coroutine switch, Alg. 2 placement computation and
   the machine-model access path.  These back the paper's claim that
   user-space task switching is orders of magnitude cheaper than kernel
   threads. *)

open Bechamel
open Toolkit
open Chipsim

let test_coroutine_spawn =
  Test.make ~name:"coroutine create+run"
    (Staged.stage (fun () ->
         let c = Engine.Coroutine.create (fun () -> ()) in
         ignore (Engine.Coroutine.resume c)))

let test_coroutine_switch =
  (* one yield + one resume = two context switches *)
  let c =
    ref
      (Engine.Coroutine.create (fun () ->
           while true do
             Engine.Coroutine.yield ()
           done))
  in
  Test.make ~name:"coroutine yield/resume"
    (Staged.stage (fun () -> ignore (Engine.Coroutine.resume !c)))

let test_placement =
  let topo = Presets.amd_milan () in
  let i = ref 0 in
  Test.make ~name:"alg2 core_of_worker"
    (Staged.stage (fun () ->
         i := (!i + 1) land 63;
         ignore (Charm.Placement.core_of_worker topo ~spread_rate:8 ~n_workers:64 ~worker:!i)))

let test_latency_classify =
  let topo = Presets.amd_milan () in
  let i = ref 0 in
  Test.make ~name:"latency classify"
    (Staged.stage (fun () ->
         i := (!i + 17) land 127;
         ignore (Latency.core_to_core_ns topo 0 !i)))

let test_cache_hit =
  let cache = Cache.create ~size_bytes:(1 lsl 20) ~line_bytes:64 () in
  ignore (Cache.access cache 42);
  Test.make ~name:"cache hit lookup"
    (Staged.stage (fun () -> ignore (Cache.access cache 42)))

let test_machine_access =
  let machine = Machine.create (Presets.amd_milan ()) in
  let region = Machine.alloc machine ~elt_bytes:8 ~count:64 () in
  ignore (Machine.touch machine ~core:0 ~now_ns:0.0 ~write:false region 0);
  Test.make ~name:"machine access (L2 hit)"
    (Staged.stage (fun () ->
         ignore (Machine.touch machine ~core:0 ~now_ns:0.0 ~write:false region 0)))

let tests =
  Test.make_grouped ~name:"micro"
    [
      test_coroutine_spawn;
      test_coroutine_switch;
      test_placement;
      test_latency_classify;
      test_cache_hit;
      test_machine_access;
    ]

let run () =
  Util.section "Micro-benchmarks (bechamel; real nanoseconds per op)";
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some (t :: _) -> rows := (name, t) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, t) -> Util.row "  %-32s %10.1f ns/op\n" name t)
    (List.sort compare !rows)
