(* Fault injection: spec grammar determinism, scheduler reaction to
   offline/DVFS events, health-monitor detection, and byte-identical
   traced runs under a fault schedule. *)

open Chipsim
module Schedule = Faults.Schedule
module Injector = Faults.Injector
module Sched = Engine.Sched

let topo () = Presets.amd_milan ()
let machine () = Machine.create (topo ())

(* -- spec grammar ------------------------------------------------------ *)

let test_parse_round_trip () =
  let topo = topo () in
  let spec =
    "100:core-off:3; 250:dvfs:5:0.5; 300:l3-ways:1:4\n\
     # a comment\n\
     400:link:2:6.0; 500:xsocket:2.0; 600:membw:0:0.25; 700:core-on:3"
  in
  let sched = Schedule.parse_exn ~topo spec in
  Alcotest.(check int) "seven events" 7 (List.length sched);
  let reparsed = Schedule.parse_exn ~topo (Schedule.to_spec sched) in
  Alcotest.(check bool) "round-trips" true (sched = reparsed)

let test_parse_rand_deterministic () =
  let topo = topo () in
  let parse seed =
    Schedule.parse_exn ~topo (Printf.sprintf "rand:%d:20:5000" seed)
  in
  Alcotest.(check int) "count" 20 (List.length (parse 7));
  Alcotest.(check bool) "same seed, same schedule" true (parse 7 = parse 7);
  Alcotest.(check bool) "different seed differs" true (parse 7 <> parse 8)

let test_parse_rejects () =
  let topo = topo () in
  let bad spec =
    match Schedule.parse ~topo spec with
    | Ok _ -> Alcotest.failf "accepted %S" spec
    | Error _ -> ()
  in
  bad "100:frobnicate:1";
  bad "100:core-off:9999";
  bad "100:dvfs:0:0";
  bad "100:l3-ways:99:2";
  bad "not-a-time:core-off:1";
  bad "100:membw:0:1.5"

(* -- scheduler reaction ------------------------------------------------ *)

let test_offline_migrates_when_cores_free () =
  (* plenty of spare cores: the evicted worker migrates instead of dying *)
  let m = machine () in
  let sched = Sched.create m ~n_workers:4 ~placement:(fun w -> w) in
  Injector.attach sched (Schedule.parse_exn ~topo:(topo ()) "5:core-off:1")
  |> ignore;
  let done_ = ref 0 in
  for _ = 1 to 64 do
    ignore
      (Sched.spawn sched (fun ctx ->
           Sched.Ctx.work ctx 500.0;
           incr done_))
  done;
  ignore (Sched.run sched : float);
  Alcotest.(check int) "all tasks completed" 64 !done_;
  Alcotest.(check bool) "worker moved off core 1" true
    (Sched.worker_core sched 1 <> 1);
  Alcotest.(check (option int)) "core 1 vacated" None
    (Sched.worker_of_core sched 1);
  Alcotest.(check int) "nobody lost" 4 (Sched.active_workers sched)

let test_offline_drains_and_completes () =
  (* every core owned: no migration target, so the worker offlines in
     place and its queue drains to a neighbour *)
  let m = machine () in
  let topo = topo () in
  let n = Chipsim.Topology.num_cores topo in
  let sched = Sched.create m ~n_workers:n ~placement:(fun w -> w) in
  Injector.attach sched (Schedule.parse_exn ~topo "5:core-off:1") |> ignore;
  let done_ = ref 0 in
  for _ = 1 to 4 * n do
    ignore
      (Sched.spawn sched (fun ctx ->
           Sched.Ctx.work ctx 3_000.0;
           incr done_))
  done;
  ignore (Sched.run sched : float);
  Alcotest.(check int) "all tasks completed" (4 * n) !done_;
  Alcotest.(check bool) "worker on core 1 offlined" true
    (Sched.worker_offlined sched 1);
  Alcotest.(check int) "one worker out" (n - 1) (Sched.active_workers sched)

let test_core_on_restores () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:2 ~placement:(fun w -> w) in
  Injector.attach sched
    (Schedule.parse_exn ~topo:(topo ()) "2:core-off:1; 20:core-on:1")
  |> ignore;
  let done_ = ref 0 in
  for _ = 1 to 64 do
    ignore
      (Sched.spawn sched (fun ctx ->
           Sched.Ctx.work ctx 2_000.0;
           incr done_))
  done;
  ignore (Sched.run sched : float);
  Alcotest.(check int) "all tasks completed" 64 !done_;
  Alcotest.(check bool) "worker back online" false
    (Sched.worker_offlined sched 1);
  Alcotest.(check int) "both workers active" 2 (Sched.active_workers sched)

let test_dvfs_scales_makespan () =
  let run spec =
    let m = machine () in
    let sched = Sched.create m ~n_workers:1 ~placement:(fun w -> w) in
    (match spec with
    | Some s -> Injector.attach sched (Schedule.parse_exn ~topo:(topo ()) s) |> ignore
    | None -> ());
    for _ = 1 to 32 do
      ignore (Sched.spawn sched (fun ctx -> Sched.Ctx.work ctx 1_000.0))
    done;
    Sched.run sched
  in
  let nominal = run None in
  let throttled = run (Some "0:dvfs:0:0.5") in
  let ratio = throttled /. nominal in
  Alcotest.(check bool)
    (Printf.sprintf "half speed ~ 2x makespan (got %.2f)" ratio)
    true
    (ratio > 1.9 && ratio < 2.1)

(* -- health monitor ---------------------------------------------------- *)

(* Drive real cross-chiplet traffic through the machine: two cores on
   different chiplets write the same line set in turn, so every round the
   observed core pulls all the lines back through its I/O-die link (both
   sides write — a read would be served by the untouched private L2).
   Each round feeds the monitor one observation for the observed core. *)
let traffic_round m ~monitor ~round =
  let observed = 0 and peer = 8 in
  let now = ref (float_of_int round *. 50_000.0) in
  for line = 0 to 63 do
    now := !now +. Machine.access_line m ~core:peer ~now_ns:!now ~write:true ~line
  done;
  for line = 0 to 63 do
    now := !now +. Machine.access_line m ~core:observed ~now_ns:!now ~write:true ~line
  done;
  Charm.Health_monitor.observe monitor ~worker:0 ~core:observed ~now:!now

let test_silent_fault_detected () =
  let m = machine () in
  let monitor = Charm.Health_monitor.create m ~n_workers:1 in
  for round = 0 to 9 do
    traffic_round m ~monitor ~round
  done;
  Alcotest.(check bool) "healthy under baseline traffic" false
    (Charm.Health_monitor.any_sick monitor);
  (* silent degradation: link multiplier is invisible to the OS path *)
  Modifiers.set_link_mult (Machine.modifiers m) 0 8.0;
  let detected_after = ref None in
  (try
     for round = 10 to 40 do
       traffic_round m ~monitor ~round;
       if Charm.Health_monitor.sick monitor ~chiplet:0 then begin
         detected_after := Some (round - 10);
         raise Exit
       end
     done
   with Exit -> ());
  (match !detected_after with
  | Some rounds ->
      Alcotest.(check bool)
        (Printf.sprintf "detected within 10 samples (took %d)" rounds)
        true (rounds <= 10)
  | None -> Alcotest.fail "silent link fault never detected");
  Alcotest.(check bool) "first_flag_ns recorded" true
    (Charm.Health_monitor.first_flag_ns monitor <> None)

(* Three observed chiplets (0, 1, 2), each paired with a peer core on a
   chiplet no one observes (4, 5, 6) and its own line set, so a link step
   on one observed chiplet slows only that chiplet's fills.  With three
   chiplets judged the cross-chiplet median exists, so the outlier test
   runs whenever the jump test passes. *)
let observed_chiplets = [| 0; 1; 2 |]

let peer_traffic_round m ~monitor ~round =
  Array.iteri
    (fun worker chiplet ->
      let observed = chiplet * 8 and peer = (chiplet + 4) * 8 in
      let lines = 1000 * (worker + 1) in
      let now = ref (float_of_int round *. 50_000.0) in
      for line = lines to lines + 63 do
        now := !now +. Machine.access_line m ~core:peer ~now_ns:!now ~write:true ~line
      done;
      for line = lines to lines + 63 do
        now :=
          !now +. Machine.access_line m ~core:observed ~now_ns:!now ~write:true ~line
      done;
      Charm.Health_monitor.observe monitor ~worker ~core:observed ~now:!now)
    observed_chiplets

let warmed_up_monitor () =
  let m = machine () in
  let monitor =
    Charm.Health_monitor.create m ~n_workers:(Array.length observed_chiplets)
  in
  for round = 0 to 9 do
    peer_traffic_round m ~monitor ~round
  done;
  Alcotest.(check (list int)) "healthy under baseline traffic" []
    (Charm.Health_monitor.sick_chiplets monitor);
  (m, monitor)

let test_machine_wide_step_not_flagged () =
  let m, monitor = warmed_up_monitor () in
  (* every chiplet jumps at once: each one's fast EWMA leaves its own
     baseline, but none stands out from the median *)
  let ewmas () =
    Array.map (fun chiplet -> Charm.Health_monitor.ewma monitor ~chiplet)
      observed_chiplets
  in
  let before = ewmas () in
  let mods = Machine.modifiers m in
  for c = 0 to Topology.num_chiplets (Machine.topology m) - 1 do
    Modifiers.set_link_mult mods c 8.0
  done;
  for round = 10 to 40 do
    peer_traffic_round m ~monitor ~round
  done;
  (* every EWMA passed the jump test, so only the median kept them unflagged *)
  Array.iteri
    (fun i after ->
      Alcotest.(check bool)
        (Printf.sprintf "chiplet %d jumped (%.1f -> %.1f ns)" observed_chiplets.(i)
           before.(i) after)
        true
        (after > 2.0 *. before.(i)))
    (ewmas ());
  Alcotest.(check (list int)) "no chiplet flagged" []
    (Charm.Health_monitor.sick_chiplets monitor)

let test_single_chiplet_step_flagged () =
  let m, monitor = warmed_up_monitor () in
  Modifiers.set_link_mult (Machine.modifiers m) 1 8.0;
  let detected_after = ref None in
  (try
     for round = 10 to 40 do
       peer_traffic_round m ~monitor ~round;
       if Charm.Health_monitor.sick_chiplets monitor <> [] then begin
         detected_after := Some (round - 10);
         raise Exit
       end
     done
   with Exit -> ());
  match !detected_after with
  | Some rounds ->
      Alcotest.(check bool)
        (Printf.sprintf "detected within 10 samples (took %d)" rounds)
        true (rounds <= 10);
      Alcotest.(check (list int)) "exactly the stepped chiplet" [ 1 ]
        (Charm.Health_monitor.sick_chiplets monitor)
  | None -> Alcotest.fail "single-chiplet link fault never detected"

let test_os_visible_fault_instant () =
  let m = machine () in
  let monitor = Charm.Health_monitor.create m ~n_workers:1 in
  Modifiers.set_core_speed (Machine.modifiers m) 3 0.4;
  (* one observation, no EWMA history needed: DVFS is read from the
     modifier generation, i.e. sysfs on a real machine *)
  Charm.Health_monitor.observe monitor ~worker:0 ~core:0 ~now:1_000.0;
  Alcotest.(check bool) "chiplet 0 flagged instantly" true
    (Charm.Health_monitor.sick monitor ~chiplet:0);
  Alcotest.(check (list int)) "only chiplet 0" [ 0 ]
    (Charm.Health_monitor.sick_chiplets monitor)

(* -- end-to-end determinism ------------------------------------------- *)

let test_faulted_serve_traces_identical () =
  let run () =
    let inst =
      Harness.Systems.make ~cache_scale:16 Harness.Systems.Charm
        Harness.Systems.Amd_milan ~n_workers:8 ()
    in
    let topo = Machine.topology inst.Harness.Systems.machine in
    Injector.attach inst.Harness.Systems.env.Workloads.Exec_env.sched
      (Schedule.parse_exn ~topo "300:dvfs:0:0.5; 500:link:0:4; 900:core-off:2")
    |> ignore;
    let tr = Engine.Trace.create () in
    let base = Serving.Server.default_config ~seed:11 in
    let cfg =
      {
        base with
        Serving.Server.tenants =
          List.map
            (fun t -> { t with Serving.Server.jobs = 8 })
            base.Serving.Server.tenants;
        trace = Some tr;
      }
    in
    let report = Serving.Server.run inst cfg in
    (Serving.Server.report_to_json report, Engine.Trace.to_chrome_json tr)
  in
  let json1, trace1 = run () in
  let json2, trace2 = run () in
  Alcotest.(check bool) "reports byte-identical" true (json1 = json2);
  Alcotest.(check bool) "traces byte-identical" true (trace1 = trace2);
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let found = ref false in
    for i = 0 to n - m do
      if (not !found) && String.sub s i m = sub then found := true
    done;
    !found
  in
  Alcotest.(check bool) "fault events present" true
    (contains trace1 {|"cat":"fault"|})

let suite =
  [
    Alcotest.test_case "spec round-trip" `Quick test_parse_round_trip;
    Alcotest.test_case "rand expansion deterministic" `Quick
      test_parse_rand_deterministic;
    Alcotest.test_case "bad specs rejected" `Quick test_parse_rejects;
    Alcotest.test_case "offline core migrates" `Quick
      test_offline_migrates_when_cores_free;
    Alcotest.test_case "offline core drains" `Quick
      test_offline_drains_and_completes;
    Alcotest.test_case "core-on restores" `Quick test_core_on_restores;
    Alcotest.test_case "dvfs scales makespan" `Quick test_dvfs_scales_makespan;
    Alcotest.test_case "silent fault detected" `Quick test_silent_fault_detected;
    Alcotest.test_case "machine-wide step not flagged" `Quick
      test_machine_wide_step_not_flagged;
    Alcotest.test_case "one chiplet's step flagged" `Quick
      test_single_chiplet_step_flagged;
    Alcotest.test_case "os-visible fault instant" `Quick
      test_os_visible_fault_instant;
    Alcotest.test_case "faulted serve deterministic" `Quick
      test_faulted_serve_traces_identical;
  ]
