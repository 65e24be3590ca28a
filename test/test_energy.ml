(* Energy accounting and the power-cap controller: per-kind golden
   values, DVFS quadratics, separation of the compute meter from the
   memory meter (the PR-8 baseline guarantee), windowed power estimates,
   shed/release hysteresis, and end-to-end wiring through the CHARM
   runtime. *)

module Topology = Chipsim.Topology
module Machine = Chipsim.Machine
module Modifiers = Chipsim.Modifiers
module Power_cap = Charm.Power_cap
module Server = Serving.Server
module Sys_ = Harness.Systems

(* 1 socket x 4 chiplets x 2 cores, mirroring examples/topologies/
   tiny-hetero.topo: chiplet 0-1 Big, 2 Little, 3 Accel *)
let hetero () =
  Machine.create
    (Topology.v
       ~chiplet_kinds:[| Topology.Big; Topology.Big; Topology.Little; Topology.Accel |]
       ~sockets:1 ~chiplets_per_socket:4 ~cores_per_chiplet:2 ())

(* compute power densities in pJ/ns at nominal DVFS: spec.energy_pj x
   spec.speed (Big 0.87 x 1.0, Little 0.30 x 0.6, Accel 0.22 x 2.5) *)
let big_pw = 0.87
let little_pw = 0.18
let accel_pw = 0.55

(* -- per-quantum compute energy ---------------------------------------- *)

let test_charge_golden () =
  let m = hetero () in
  Machine.charge_quantum m ~core:0 ~dt_ns:100.0 ~dvfs:1.0;
  Machine.charge_quantum m ~core:4 ~dt_ns:100.0 ~dvfs:1.0;
  Machine.charge_quantum m ~core:6 ~dt_ns:100.0 ~dvfs:1.0;
  Alcotest.(check (float 1e-9)) "Big: 100 ns at nominal = 87 pJ"
    (100.0 *. big_pw)
    (Machine.compute_energy_pj m ~core:0);
  Alcotest.(check (float 1e-9)) "Little: 100 ns = 18 pJ" (100.0 *. little_pw)
    (Machine.compute_energy_pj m ~core:4);
  Alcotest.(check (float 1e-9)) "Accel: 100 ns = 55 pJ" (100.0 *. accel_pw)
    (Machine.compute_energy_pj m ~core:6);
  Alcotest.(check (float 1e-9)) "uncharged core stays 0" 0.0
    (Machine.compute_energy_pj m ~core:1);
  Alcotest.(check (float 1e-9)) "total = sum of cores"
    (100.0 *. (big_pw +. little_pw +. accel_pw))
    (Machine.total_compute_energy_pj m)

let test_dvfs_quadratic () =
  let m = hetero () in
  Machine.charge_quantum m ~core:0 ~dt_ns:100.0 ~dvfs:0.5;
  Alcotest.(check (float 1e-9)) "half frequency = quarter energy"
    (100.0 *. big_pw *. 0.25)
    (Machine.compute_energy_pj m ~core:0);
  Machine.charge_quantum m ~core:0 ~dt_ns:100.0 ~dvfs:0.5;
  Alcotest.(check (float 1e-9)) "charges accumulate"
    (2.0 *. 100.0 *. big_pw *. 0.25)
    (Machine.compute_energy_pj m ~core:0);
  let m2 = hetero () in
  Machine.charge_quantum m2 ~core:0 ~dt_ns:50.0 ~dvfs:2.0;
  Alcotest.(check (float 1e-9)) "overdrive scales by dvfs^2"
    (50.0 *. big_pw *. 4.0)
    (Machine.compute_energy_pj m2 ~core:0)

let test_compute_meter_separate () =
  (* the PR-8 compatibility contract: charge_quantum must never move
     total_energy_pj (memory-only), and memory accesses must never move
     the compute meter, so every pre-energy baseline stays bit-identical
     with --energy off *)
  let m = hetero () in
  let r = Machine.alloc m ~elt_bytes:8 ~count:256 () in
  ignore (Machine.touch_range m ~core:0 ~now_ns:0.0 ~write:false r ~lo:0 ~hi:256);
  let mem_before = Machine.total_energy_pj m in
  Alcotest.(check bool) "accesses metered memory energy" true (mem_before > 0.0);
  Alcotest.(check (float 0.0)) "accesses leave the compute meter at 0" 0.0
    (Machine.total_compute_energy_pj m);
  Machine.charge_quantum m ~core:0 ~dt_ns:1000.0 ~dvfs:1.0;
  Alcotest.(check (float 0.0)) "charge_quantum leaves the memory meter alone"
    mem_before (Machine.total_energy_pj m);
  Alcotest.(check (float 1e-9)) "combined = memory + compute"
    (mem_before +. (1000.0 *. big_pw))
    (Machine.combined_energy_pj m)

let test_chiplet_sums () =
  let m = hetero () in
  let r = Machine.alloc m ~elt_bytes:8 ~count:512 () in
  for core = 0 to 7 do
    ignore (Machine.touch m ~core ~now_ns:0.0 ~write:(core mod 2 = 0) r core);
    Machine.charge_quantum m ~core ~dt_ns:(float_of_int ((core + 1) * 10)) ~dvfs:0.9
  done;
  let per_chiplet = ref 0.0 in
  for chiplet = 0 to 3 do
    per_chiplet := !per_chiplet +. Machine.chiplet_energy_pj m ~chiplet
  done;
  Alcotest.(check (float 1e-6)) "chiplet meters sum to the combined meter"
    (Machine.combined_energy_pj m) !per_chiplet;
  (* the executable energy-conservation invariant over the same state *)
  Machine.check_invariants_full m

let test_reset_zeroes () =
  let m = hetero () in
  Machine.charge_quantum m ~core:3 ~dt_ns:500.0 ~dvfs:1.0;
  Machine.reset m;
  Alcotest.(check (float 0.0)) "reset clears compute energy" 0.0
    (Machine.total_compute_energy_pj m);
  Alcotest.(check (float 0.0)) "reset clears combined energy" 0.0
    (Machine.combined_energy_pj m)

(* -- gating through the scheduler -------------------------------------- *)

let small_serve_cfg seed =
  let base = Server.default_config ~seed in
  {
    base with
    Server.tenants =
      List.map
        (fun t -> { t with Server.jobs = 8 })
        base.Server.tenants;
  }

let run_serve ~energy seed =
  let inst = Sys_.make ~cache_scale:16 Sys_.Charm Sys_.Amd_milan_1s ~n_workers:8 () in
  let sched = inst.Sys_.env.Workloads.Exec_env.sched in
  Engine.Sched.set_energy sched energy;
  let r = Server.run inst (small_serve_cfg seed) in
  (r, Machine.total_compute_energy_pj inst.Sys_.machine)

let test_energy_off_is_free () =
  (* with energy off (the default) the compute meter must stay at zero
     and the schedule must be exactly the one an energy-on run produces:
     metering is observation, never perturbation *)
  let r_off, compute_off = run_serve ~energy:false 11 in
  let r_on, compute_on = run_serve ~energy:true 11 in
  Alcotest.(check (float 0.0)) "energy off: compute meter untouched" 0.0
    compute_off;
  Alcotest.(check bool) "energy on: compute meter accrues" true
    (compute_on > 0.0);
  Alcotest.(check (float 0.0)) "identical makespan" r_off.Server.makespan_ns
    r_on.Server.makespan_ns;
  List.iter2
    (fun a b ->
      Alcotest.(check int) "identical completions" a.Server.completed
        b.Server.completed;
      Alcotest.(check (float 0.0)) "identical latency mass"
        (Serving.Histogram.sum a.Server.latency)
        (Serving.Histogram.sum b.Server.latency))
    r_off.Server.tenant_reports r_on.Server.tenant_reports

let test_energy_totals_deterministic () =
  let _, a = run_serve ~energy:true 21 in
  let _, b = run_serve ~energy:true 21 in
  Alcotest.(check (float 0.0)) "same seed, bit-identical energy total" a b

(* -- power-cap controller ---------------------------------------------- *)

let invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: accepted a nonsensical argument" name

let test_cap_validation () =
  let m = hetero () in
  invalid "zero cap" (fun () -> Power_cap.create m ~cap_mw:0.0);
  invalid "negative cap" (fun () -> Power_cap.create m ~cap_mw:(-1.0));
  invalid "nan cap" (fun () -> Power_cap.create m ~cap_mw:Float.nan);
  invalid "zero window" (fun () ->
      Power_cap.create ~window_ns:0.0 m ~cap_mw:1.0);
  invalid "zero cadence" (fun () ->
      Power_cap.create ~sample_ns:0.0 m ~cap_mw:1.0);
  invalid "config negative weight" (fun () ->
      Charm.Config.validate
        { Charm.Config.default with energy_weight = -1.0 }
        (Machine.topology m));
  invalid "config nan cap" (fun () ->
      Charm.Config.validate
        { Charm.Config.default with power_cap_mw = Float.nan }
        (Machine.topology m));
  (* a baseline ignores CHARM's knobs but must not accept bad ones *)
  invalid "baseline nan cap" (fun () ->
      Sys_.make
        ~charm_config:{ Charm.Config.default with power_cap_mw = Float.nan }
        Sys_.Os_default Sys_.Amd_milan_1s ~n_workers:2 ())

let test_power_estimate_golden () =
  let m = hetero () in
  (* huge cap: pure estimation, no actuation *)
  let pc = Power_cap.create ~window_ns:1000.0 ~sample_ns:100.0 m ~cap_mw:1e9 in
  Alcotest.(check (float 0.0)) "no samples yet: 0 mW" 0.0 (Power_cap.power_mw pc);
  ignore (Power_cap.tick pc ~now_ns:0.0);
  Alcotest.(check (float 0.0)) "one sample: still 0 mW" 0.0
    (Power_cap.power_mw pc);
  Machine.charge_quantum m ~core:0 ~dt_ns:100.0 ~dvfs:1.0;
  ignore (Power_cap.tick pc ~now_ns:100.0);
  (* 87 pJ over 100 ns = 0.87 pJ/ns = 0.87 mW, all on chiplet 0 *)
  Alcotest.(check (float 1e-9)) "chiplet 0 draws 0.87 mW" 0.87
    (Power_cap.chiplet_power_mw pc ~chiplet:0);
  Alcotest.(check (float 1e-9)) "idle chiplet draws 0 mW" 0.0
    (Power_cap.chiplet_power_mw pc ~chiplet:1);
  Alcotest.(check (float 1e-9)) "machine power sums the chiplets" 0.87
    (Power_cap.power_mw pc);
  Alcotest.(check (float 1e-9)) "peak recorded" 0.87
    (Power_cap.max_power_mw pc);
  (* sub-cadence tick: no new sample, estimate unchanged *)
  ignore (Power_cap.tick pc ~now_ns:150.0);
  Alcotest.(check (float 1e-9)) "sub-cadence tick holds the estimate" 0.87
    (Power_cap.power_mw pc);
  Power_cap.verify pc

let test_cap_sheds_hottest () =
  let m = hetero () in
  let pc = Power_cap.create ~window_ns:200.0 ~sample_ns:100.0 m ~cap_mw:1.0 in
  ignore (Power_cap.tick pc ~now_ns:0.0);
  (* chiplet 0 draws 1.5 mW, chiplet 2 a modest 0.2 mW *)
  Machine.charge_quantum m ~core:0 ~dt_ns:(150.0 /. big_pw) ~dvfs:1.0;
  Machine.charge_quantum m ~core:4 ~dt_ns:(20.0 /. little_pw) ~dvfs:1.0;
  (match Power_cap.tick pc ~now_ns:100.0 with
  | Power_cap.Shed 0 -> ()
  | Power_cap.Shed ch -> Alcotest.failf "shed chiplet %d, not the hottest" ch
  | Power_cap.Idle | Power_cap.Release _ ->
      Alcotest.fail "over-cap tick did not shed");
  Alcotest.(check int) "one shed recorded" 1 (Power_cap.sheds pc);
  Alcotest.(check (float 1e-9)) "level dropped one step" 0.75
    (Power_cap.level pc ~chiplet:0);
  Alcotest.(check bool) "chiplet reported throttled" true
    (Power_cap.throttled pc ~chiplet:0);
  (* the actuator is the DVFS knob the fault layer owns: both cores of
     the shed chiplet slow down, neighbours keep nominal speed *)
  let mods = Machine.modifiers m in
  Alcotest.(check (float 1e-9)) "core 0 throttled" 0.75
    (Modifiers.core_speed mods 0);
  Alcotest.(check (float 1e-9)) "core 1 throttled" 0.75
    (Modifiers.core_speed mods 1);
  Alcotest.(check (float 1e-9)) "core 2 untouched" 1.0
    (Modifiers.core_speed mods 2);
  Power_cap.verify pc

let test_cap_hysteresis_no_flapping () =
  let m = hetero () in
  let pc = Power_cap.create ~window_ns:200.0 ~sample_ns:100.0 m ~cap_mw:1.0 in
  let now = ref 0.0 in
  let step rate_mw =
    (* inject [rate_mw] worth of energy on chiplet 0 over one cadence;
       manual charges keep the plant under test control regardless of
       the controller's own DVFS actuation *)
    Machine.charge_quantum m ~core:0 ~dt_ns:(rate_mw *. 100.0 /. big_pw)
      ~dvfs:1.0;
    now := !now +. 100.0;
    Power_cap.tick pc ~now_ns:!now
  in
  ignore (Power_cap.tick pc ~now_ns:0.0);
  (* drive power over the cap until the controller reacts *)
  let guard = ref 0 in
  while Power_cap.sheds pc = 0 && !guard < 10 do
    ignore (step 1.5);
    incr guard
  done;
  Alcotest.(check bool) "over-cap load triggers a shed" true
    (Power_cap.sheds pc > 0);
  (* settle into the dead band (80%..100% of cap) and let the sliding
     window flush the over-cap transient *)
  for _ = 1 to 5 do
    ignore (step 0.9)
  done;
  let sheds0 = Power_cap.sheds pc and releases0 = Power_cap.releases pc in
  (* hysteresis: a steady dead-band load must hold the actuator still *)
  for _ = 1 to 10 do
    match step 0.9 with
    | Power_cap.Idle -> ()
    | Power_cap.Shed _ | Power_cap.Release _ ->
        Alcotest.fail "actuator flapped inside the dead band"
  done;
  Alcotest.(check int) "no sheds inside the dead band" sheds0
    (Power_cap.sheds pc);
  Alcotest.(check int) "no releases inside the dead band" releases0
    (Power_cap.releases pc);
  (* quiesce: power falls under 80% of cap, levels release back to 1 *)
  let guard = ref 0 in
  while Power_cap.throttled pc ~chiplet:0 && !guard < 20 do
    ignore (step 0.0);
    incr guard
  done;
  Alcotest.(check bool) "released after sustained low power" true
    (Power_cap.releases pc > 0);
  Alcotest.(check (float 1e-9)) "level restored to nominal" 1.0
    (Power_cap.level pc ~chiplet:0);
  Alcotest.(check (float 1e-9)) "cores back to full speed" 1.0
    (Modifiers.core_speed (Machine.modifiers m) 0);
  Power_cap.verify pc

let test_cap_floor () =
  let m = hetero () in
  let pc = Power_cap.create ~window_ns:200.0 ~sample_ns:100.0 m ~cap_mw:0.01 in
  let now = ref 0.0 in
  (* hopeless overload: every chiplet pinned far over a tiny cap *)
  for _ = 1 to 30 do
    for chiplet = 0 to 3 do
      Machine.charge_quantum m ~core:(chiplet * 2) ~dt_ns:1000.0 ~dvfs:1.0
    done;
    now := !now +. 100.0;
    ignore (Power_cap.tick pc ~now_ns:!now)
  done;
  for chiplet = 0 to 3 do
    let l = Power_cap.level pc ~chiplet in
    Alcotest.(check bool)
      (Printf.sprintf "chiplet %d level %g respects the floor" chiplet l)
      true
      (l >= 0.3 -. 1e-9 && l < 1.0)
  done;
  (* every chiplet at the floor: over-cap ticks with no headroom are not
     control-law violations *)
  Power_cap.verify pc

let test_cap_nonmonotonic_ticks () =
  let m = hetero () in
  let pc = Power_cap.create ~window_ns:200.0 ~sample_ns:100.0 m ~cap_mw:1e9 in
  ignore (Power_cap.tick pc ~now_ns:0.0);
  Machine.charge_quantum m ~core:0 ~dt_ns:100.0 ~dvfs:1.0;
  ignore (Power_cap.tick pc ~now_ns:200.0);
  let p = Power_cap.power_mw pc in
  (* stale worker clocks must not rewind the controller's timeline *)
  ignore (Power_cap.tick pc ~now_ns:50.0);
  Alcotest.(check (float 0.0)) "older tick is a no-op" p
    (Power_cap.power_mw pc);
  Power_cap.verify pc

let test_runtime_cap_wiring () =
  (* end to end: a Systems instance built with a tiny power cap must
     actually shed while serving, and the controller's invariants must
     hold at the end of the run *)
  let inst =
    Sys_.make ~cache_scale:16
      ~charm_config:{ Charm.Config.default with power_cap_mw = 0.05 }
      Sys_.Charm Sys_.Amd_milan_1s ~n_workers:8 ()
  in
  Engine.Sched.set_energy inst.Sys_.env.Workloads.Exec_env.sched true;
  let r = Server.run inst (small_serve_cfg 7) in
  Alcotest.(check bool) "run completes" true (r.Server.makespan_ns > 0.0);
  match inst.Sys_.charm with
  | None -> Alcotest.fail "CHARM instance lost its runtime"
  | Some rt -> (
      match Charm.Runtime.power_cap rt with
      | None -> Alcotest.fail "power_cap_mw > 0 but no controller attached"
      | Some pc ->
          Alcotest.(check bool) "tiny cap forced sheds" true
            (Power_cap.sheds pc > 0);
          Alcotest.(check bool) "peak power above the cap was observed" true
            (Power_cap.max_power_mw pc > Power_cap.cap_mw pc);
          Power_cap.verify pc)

let suite =
  [
    Alcotest.test_case "per-kind golden energies" `Quick test_charge_golden;
    Alcotest.test_case "dvfs quadratic scaling" `Quick test_dvfs_quadratic;
    Alcotest.test_case "compute meter separate from memory meter" `Quick
      test_compute_meter_separate;
    Alcotest.test_case "chiplet meters sum to combined" `Quick
      test_chiplet_sums;
    Alcotest.test_case "reset zeroes energy" `Quick test_reset_zeroes;
    Alcotest.test_case "energy off is free and identical" `Quick
      test_energy_off_is_free;
    Alcotest.test_case "energy totals deterministic" `Quick
      test_energy_totals_deterministic;
    Alcotest.test_case "cap and config validation" `Quick test_cap_validation;
    Alcotest.test_case "windowed power golden value" `Quick
      test_power_estimate_golden;
    Alcotest.test_case "shed targets the hottest chiplet" `Quick
      test_cap_sheds_hottest;
    Alcotest.test_case "dead-band hysteresis, no flapping" `Quick
      test_cap_hysteresis_no_flapping;
    Alcotest.test_case "levels respect the floor" `Quick test_cap_floor;
    Alcotest.test_case "non-monotonic ticks" `Quick test_cap_nonmonotonic_ticks;
    Alcotest.test_case "runtime cap wiring end to end" `Quick
      test_runtime_cap_wiring;
  ]
