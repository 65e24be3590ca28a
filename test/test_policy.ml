open Chipsim
module Sched = Engine.Sched

(* Harness: a CHARM runtime whose machine we drive by hand so we can force
   specific PMU readings into Alg. 1. *)
let make ?(config = Charm.Config.default) ~n_workers () =
  let machine = Machine.create (Presets.amd_milan ()) in
  let rt = Charm.Runtime.init ~config machine ~n_workers in
  (machine, rt)

let pump_remote_events machine ~core n =
  Pmu.add (Machine.pmu machine) ~core Pmu.Dram_local n

let test_spreads_on_high_rate () =
  let machine, rt = make ~n_workers:8 () in
  let sched = Charm.Runtime.sched rt in
  let policy = Charm.Runtime.policy rt in
  Alcotest.(check int) "starts at 1" 1 (Charm.Policy.spread_rate policy ~worker:0);
  pump_remote_events machine ~core:(Sched.worker_core sched 0) 100_000;
  Charm.Policy.force_tick policy sched ~worker:0;
  Alcotest.(check int) "spread incremented" 2 (Charm.Policy.spread_rate policy ~worker:0);
  let st = Charm.Policy.stats policy in
  Alcotest.(check int) "one spread" 1 st.Charm.Policy.spreads

let test_contracts_on_low_rate () =
  let config = { Charm.Config.default with Charm.Config.initial_spread = 4 } in
  let machine, rt = make ~config ~n_workers:8 () in
  let sched = Charm.Runtime.sched rt in
  let policy = Charm.Runtime.policy rt in
  ignore machine;
  (* no remote events at all: rate 0 < threshold *)
  Charm.Policy.force_tick policy sched ~worker:0;
  Alcotest.(check int) "spread decremented" 3 (Charm.Policy.spread_rate policy ~worker:0)

let test_never_below_min_valid () =
  (* 64 workers: min valid spread is 8; contraction must stop there *)
  let config = { Charm.Config.default with Charm.Config.initial_spread = 8 } in
  let _machine, rt = make ~config ~n_workers:64 () in
  let sched = Charm.Runtime.sched rt in
  let policy = Charm.Runtime.policy rt in
  for _ = 1 to 5 do
    Charm.Policy.force_tick policy sched ~worker:0
  done;
  Alcotest.(check int) "clamped at 8" 8 (Charm.Policy.spread_rate policy ~worker:0)

let test_never_above_chiplets () =
  let machine, rt = make ~n_workers:8 () in
  let sched = Charm.Runtime.sched rt in
  let policy = Charm.Runtime.policy rt in
  for _ = 1 to 20 do
    pump_remote_events machine ~core:(Sched.worker_core sched 0) 100_000;
    Charm.Policy.force_tick policy sched ~worker:0
  done;
  Alcotest.(check bool) "bounded by chiplets/socket" true
    (Charm.Policy.spread_rate policy ~worker:0 <= 8)

let test_migration_applied () =
  let machine, rt = make ~n_workers:8 () in
  let sched = Charm.Runtime.sched rt in
  let policy = Charm.Runtime.policy rt in
  let before = Sched.worker_core sched 7 in
  pump_remote_events machine ~core:before 100_000;
  Charm.Policy.force_tick policy sched ~worker:7;
  let after = Sched.worker_core sched 7 in
  Alcotest.(check bool) "worker 7 moved" true (before <> after);
  let st = Charm.Policy.stats policy in
  Alcotest.(check int) "migration recorded" 1 st.Charm.Policy.migrations

let test_occupied_target_skipped () =
  (* worker 1 wants worker 0's spot? Construct: spread worker 1 while its
     Alg.2 target at the new spread is occupied by a worker that has not
     ticked yet.  With 8 workers at spread 1 -> spread 2, worker 1's target
     is core 1 -> target (chiplet 0, slot 1) ... worker 1 maps to chiplet 0
     slot 1 = same core; use worker 4: spread 2 target = chiplet 1 slot 0 =
     core 8, which is free -> moves.  To force an occupied skip, first
     migrate worker 7 onto core 8 manually. *)
  let machine, rt = make ~n_workers:8 () in
  let sched = Charm.Runtime.sched rt in
  let policy = Charm.Runtime.policy rt in
  Sched.migrate sched ~worker:7 ~core:10;
  Sched.migrate sched ~worker:4 ~core:8;
  pump_remote_events machine ~core:(Sched.worker_core sched 5) 100_000;
  (* worker 5 at spread 2 targets chiplet 1 slot 1 = core 9; that's free, so
     instead pin it: move worker 6 to core 9 first *)
  Sched.migrate sched ~worker:6 ~core:9;
  Charm.Policy.force_tick policy sched ~worker:5;
  Alcotest.(check int) "worker 5 did not move onto occupied core" 5
    (Sched.worker_core sched 5);
  let st = Charm.Policy.stats policy in
  Alcotest.(check bool) "skip recorded" true (st.Charm.Policy.skipped >= 1)

let test_timer_gates_tick () =
  let machine, rt = make ~n_workers:8 () in
  let sched = Charm.Runtime.sched rt in
  let policy = Charm.Runtime.policy rt in
  pump_remote_events machine ~core:(Sched.worker_core sched 0) 100_000;
  (* tick (not force): no virtual time elapsed, so nothing happens *)
  Charm.Policy.tick policy sched ~worker:0;
  Alcotest.(check int) "no decision before the timer" 1
    (Charm.Policy.spread_rate policy ~worker:0)

let test_centralized_uniform_spread () =
  let config =
    { Charm.Config.default with Charm.Config.decentralized = false }
  in
  let machine, rt = make ~config ~n_workers:8 () in
  let sched = Charm.Runtime.sched rt in
  let policy = Charm.Runtime.policy rt in
  (* heavy remote traffic on every worker's core *)
  for w = 0 to 7 do
    pump_remote_events machine ~core:(Sched.worker_core sched w) 100_000
  done;
  (* only the arbiter's tick acts; others are inert *)
  Charm.Policy.tick policy sched ~worker:3;
  Alcotest.(check int) "non-arbiter inert" 1 (Charm.Policy.spread_rate policy ~worker:3);
  Sched.charge sched ~worker:0 1_000_000.0;
  Charm.Policy.tick policy sched ~worker:0;
  for w = 0 to 7 do
    Alcotest.(check int) "uniform spread pushed" 2
      (Charm.Policy.spread_rate policy ~worker:w)
  done

let test_centralized_charges_arbiter () =
  let config =
    { Charm.Config.default with Charm.Config.decentralized = false }
  in
  let machine, rt = make ~config ~n_workers:8 () in
  let sched = Charm.Runtime.sched rt in
  let policy = Charm.Runtime.policy rt in
  ignore machine;
  Sched.charge sched ~worker:0 1_000_000.0;
  let before = Sched.worker_clock sched 0 in
  Charm.Policy.tick policy sched ~worker:0;
  (* global data collection: at least one cross-core latency per worker *)
  Alcotest.(check bool) "coordination cost charged" true
    (Sched.worker_clock sched 0 -. before >= 8.0 *. 12.0)

let test_flee_prefers_faster_kind () =
  (* one socket, groups {0,1} and {2,3}; a 4-worker gang fills big
     chiplets 0 and 1.  When chiplet 0 turns sick, worker 0's nearest
     free cores are all one group away: little chiplet 2 (cores 4-5) and
     big chiplet 3 (cores 6-7).  Equal distance, so the faster kind wins
     over the lower core number. *)
  let topo =
    Topology.v ~sockets:1 ~chiplets_per_socket:4 ~cores_per_chiplet:2
      ~chiplet_group_size:2 ~l3_bytes_per_chiplet:(16 * 1024)
      ~l2_bytes_per_core:4096 ~mem_channels_per_socket:2
      ~chiplet_kinds:[| Topology.Big; Big; Little; Big |] ()
  in
  let rt = Charm.Runtime.init (Machine.create topo) ~n_workers:4 in
  let sched = Charm.Runtime.sched rt in
  let policy = Charm.Runtime.policy rt in
  Alcotest.(check (list int)) "gang on chiplets 0 and 1" [ 0; 1; 2; 3 ]
    (List.sort compare (List.init 4 (Sched.worker_core sched)));
  Alcotest.(check int) "worker 0 on chiplet 0" 0 (Sched.worker_core sched 0);
  Charm.Policy.set_health policy (Some (fun chiplet -> chiplet = 0));
  Charm.Policy.force_tick policy sched ~worker:0;
  Alcotest.(check int) "fled to the big chiplet" 6 (Sched.worker_core sched 0);
  Alcotest.(check int) "health migration counted" 1
    (Charm.Policy.stats policy).Charm.Policy.health_migrations

let suite =
  [
    Alcotest.test_case "spreads on high rate" `Quick test_spreads_on_high_rate;
    Alcotest.test_case "contracts on low rate" `Quick test_contracts_on_low_rate;
    Alcotest.test_case "clamped at min valid spread" `Quick test_never_below_min_valid;
    Alcotest.test_case "bounded above" `Quick test_never_above_chiplets;
    Alcotest.test_case "migration applied" `Quick test_migration_applied;
    Alcotest.test_case "occupied target skipped" `Quick test_occupied_target_skipped;
    Alcotest.test_case "timer gates ticks" `Quick test_timer_gates_tick;
    Alcotest.test_case "centralized uniform spread" `Quick test_centralized_uniform_spread;
    Alcotest.test_case "centralized coordination cost" `Quick test_centralized_charges_arbiter;
    Alcotest.test_case "flee prefers the faster kind" `Quick
      test_flee_prefers_faster_kind;
  ]
