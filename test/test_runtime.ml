open Chipsim
module Sched = Engine.Sched
module Runtime = Charm.Runtime

let make ?config ~n_workers () =
  let machine = Machine.create (Presets.amd_milan ()) in
  (machine, Runtime.init ?config machine ~n_workers)

let test_init_places_compactly () =
  let _m, rt = make ~n_workers:8 () in
  let sched = Runtime.sched rt in
  for w = 0 to 7 do
    Alcotest.(check int) "compact core" w (Sched.worker_core sched w)
  done

let test_init_clamps_spread () =
  (* 64 workers cannot start at spread 1; init must clamp to 8 *)
  let _m, rt = make ~n_workers:64 () in
  Alcotest.(check int) "clamped initial spread" 8
    (Charm.Policy.spread_rate (Runtime.policy rt) ~worker:0)

let test_run_and_makespan () =
  let _m, rt = make ~n_workers:4 () in
  let makespan = Runtime.run rt (fun ctx -> Sched.Ctx.work ctx 1234.0) in
  Alcotest.(check bool) "makespan covers work" true (makespan >= 1234.0);
  Alcotest.(check (float 1.0)) "last_makespan" makespan (Runtime.last_makespan rt)

let test_all_do_runs_every_worker () =
  let _m, rt = make ~n_workers:6 () in
  let seen = Array.make 6 false in
  ignore
    (Runtime.all_do rt (fun _ctx w -> seen.(w) <- true)
      : float);
  Alcotest.(check bool) "all workers ran" true (Array.for_all Fun.id seen)

let test_parallel_for_covers_range () =
  let _m, rt = make ~n_workers:4 () in
  let n = 1000 in
  let hits = Array.make n 0 in
  ignore
    (Runtime.run rt (fun ctx ->
         Runtime.Api.parallel_for ctx ~lo:0 ~hi:n (fun _ctx' lo hi ->
             for i = lo to hi - 1 do
               hits.(i) <- hits.(i) + 1
             done))
      : float);
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun h -> h = 1) hits)

let test_call_sync_runs_on_target () =
  let _m, rt = make ~n_workers:4 () in
  let ran_on = ref (-1) in
  ignore
    (Runtime.run rt (fun ctx ->
         Runtime.Api.call_sync ctx ~worker:3 (fun ctx' ->
             ran_on := Sched.Ctx.worker_id ctx'))
      : float);
  Alcotest.(check int) "on worker 3" 3 !ran_on

let test_call_pays_message_latency () =
  let _m, rt = make ~n_workers:64 () in
  let start_time = ref 0.0 in
  ignore
    (Runtime.run rt (fun ctx ->
         (* worker 63 is on another chiplet; message latency > 0 *)
         Runtime.Api.call_sync ctx ~worker:63 (fun ctx' ->
             start_time := Sched.Ctx.now ctx'))
      : float);
  Alcotest.(check bool) "message delayed" true (!start_time > 0.0)

let test_alloc_binds_to_caller_socket () =
  let m, rt = make ~n_workers:64 () in
  ignore
    (Runtime.run rt (fun ctx ->
         let r = Runtime.Api.alloc ctx ~elt_bytes:8 ~count:16 () in
         (* first touch from anywhere must land on the caller's socket *)
         let node =
           Simmem.node_of_addr (Machine.mem m) ~toucher_node:1 (Simmem.addr r 0)
         in
         Alcotest.(check int) "bound to socket 0" 0 node)
      : float)

let test_barrier_api () =
  let _m, rt = make ~n_workers:4 () in
  let b = Runtime.barrier rt in
  let after = ref 0 in
  ignore
    (Runtime.all_do rt (fun ctx _w ->
         Runtime.Api.barrier_wait ctx b;
         incr after)
      : float);
  Alcotest.(check int) "all through" 4 !after

let test_finalize_reports () =
  let _m, rt = make ~n_workers:2 () in
  ignore (Runtime.run rt (fun ctx -> Sched.Ctx.work ctx 10.0) : float);
  let report = Runtime.finalize rt in
  Alcotest.(check bool) "tasks executed" true (report.Engine.Stats.tasks_executed >= 1);
  Alcotest.(check bool) "switches counted" true (report.Engine.Stats.context_switches >= 1)

let test_adaptation_under_pressure () =
  (* a working set that exceeds per-chiplet L3 even at full spread keeps
     the remote-fill rate high, so the policy must spread and stay spread
     (at the capacity boundary Alg. 1 oscillates by design — it has no
     hysteresis — so the probe uses unambiguous pressure) *)
  let topo = Presets.amd_milan ~scale:16 () in
  (* 2 MB L3 per chiplet *)
  let machine = Machine.create topo in
  let rt = Runtime.init machine ~n_workers:8 in
  let region = Runtime.alloc_shared rt ~elt_bytes:8 ~count:(1 lsl 22) () in
  (* 32 MB across 8 workers: 4 MB per worker > any slice *)
  ignore
    (Runtime.all_do rt (fun ctx w ->
         let chunk = (1 lsl 22) / 8 in
         for pass = 1 to 3 do
           ignore pass;
           Sched.Ctx.read_range ctx region ~lo:(w * chunk) ~hi:((w + 1) * chunk);
           Sched.Ctx.yield ctx
         done)
      : float);
  let policy = Runtime.policy rt in
  let max_spread = ref 0 in
  for w = 0 to 7 do
    max_spread := max !max_spread (Charm.Policy.spread_rate policy ~worker:w)
  done;
  Alcotest.(check bool) "spread grew beyond 1" true (!max_spread > 1);
  let st = Charm.Policy.stats policy in
  Alcotest.(check bool) "policy made spread decisions" true
    (st.Charm.Policy.spreads > 0)

(* Golden runs: a chiplet meltdown makes the health monitor flag a
   chiplet and the gang flee it; the makespan bits and policy counters pin
   every placement and flee decision.  The tiny-hetero case depends on the
   fast-first placement order, the accelerator penalty on flee targets and
   the general-chiplet spread cap; the big.LITTLE case pins a larger
   two-socket gang. *)
let golden_flee_run ~file ~n_workers ~chiplet ~count =
  let topo =
    match Topology.of_file (Filename.concat "../examples/topologies" file) with
    | Ok t -> t
    | Error msg -> Alcotest.fail msg
  in
  let machine = Machine.create topo in
  let rt = Runtime.init machine ~n_workers in
  ignore
    (Faults.Injector.attach (Runtime.sched rt)
       (Faults.Schedule.chiplet_meltdown ~topo ~chiplet ~at_us:100.0 ())
      : Faults.Injector.t);
  let region = Runtime.alloc_shared rt ~elt_bytes:8 ~count () in
  let chunk = count / n_workers in
  let makespan =
    Runtime.all_do rt (fun ctx w ->
        for _pass = 1 to 40 do
          Sched.Ctx.read_range ctx region ~lo:(w * chunk) ~hi:((w + 1) * chunk);
          Sched.Ctx.yield ctx
        done)
  in
  (Int64.bits_of_float makespan, Charm.Policy.stats (Runtime.policy rt))

let test_golden_flee () =
  let check ~file ~n_workers ~chiplet ~count ~bits ~migrations ~health ~spreads =
    let got_bits, st = golden_flee_run ~file ~n_workers ~chiplet ~count in
    Alcotest.(check int64) (file ^ " makespan bits") bits got_bits;
    Alcotest.(check int) (file ^ " migrations") migrations st.Charm.Policy.migrations;
    Alcotest.(check int) (file ^ " health migrations") health
      st.Charm.Policy.health_migrations;
    Alcotest.(check int) (file ^ " spreads") spreads st.Charm.Policy.spreads
  in
  check ~file:"biglittle.topo" ~n_workers:12 ~chiplet:0 ~count:(1 lsl 16)
    ~bits:4694635731432711840L ~migrations:6 ~health:3 ~spreads:12;
  check ~file:"tiny-hetero.topo" ~n_workers:3 ~chiplet:2 ~count:(1 lsl 12)
    ~bits:4690080433068473839L ~migrations:2 ~health:1 ~spreads:3

let suite =
  [
    Alcotest.test_case "init compact placement" `Quick test_init_places_compactly;
    Alcotest.test_case "init clamps spread" `Quick test_init_clamps_spread;
    Alcotest.test_case "run returns makespan" `Quick test_run_and_makespan;
    Alcotest.test_case "all_do covers workers" `Quick test_all_do_runs_every_worker;
    Alcotest.test_case "parallel_for covers range" `Quick test_parallel_for_covers_range;
    Alcotest.test_case "call_sync on target worker" `Quick test_call_sync_runs_on_target;
    Alcotest.test_case "call pays message latency" `Quick test_call_pays_message_latency;
    Alcotest.test_case "alloc binds to caller socket" `Quick test_alloc_binds_to_caller_socket;
    Alcotest.test_case "barrier API" `Quick test_barrier_api;
    Alcotest.test_case "finalize reports" `Quick test_finalize_reports;
    Alcotest.test_case "adapts under cache pressure" `Quick test_adaptation_under_pressure;
    Alcotest.test_case "golden flee run" `Quick test_golden_flee;
  ]
