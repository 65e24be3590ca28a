(* The scenario fuzzer itself: deterministic generation, clean smoke
   seeds, shrinking behaviour and repro rendering. *)

module Scenario = Check.Scenario
module Fuzz = Check.Fuzz

let test_generation_deterministic () =
  for seed = 0 to 20 do
    let a = Scenario.generate ~mode:Scenario.Smoke ~seed in
    let b = Scenario.generate ~mode:Scenario.Smoke ~seed in
    if a <> b then Alcotest.failf "seed %d generated two different scenarios" seed
  done

let test_smoke_seeds_clean () =
  match Fuzz.run ~mode:Scenario.Smoke ~start_seed:0 ~seeds:4 () with
  | Fuzz.Clean { scenarios } -> Alcotest.(check int) "scenarios" 4 scenarios
  | Fuzz.Failed { repro; _ } -> Alcotest.failf "unexpected failure:\n%s" repro

let scenario_with_faults () =
  (* walk seeds until generation yields a faulty scenario *)
  let rec go seed =
    let t = Scenario.generate ~mode:Scenario.Smoke ~seed in
    if t.Scenario.faults <> [] then t else go (seed + 1)
  in
  go 0

let test_shrink_candidates () =
  let t = scenario_with_faults () in
  let cands = Scenario.shrink t in
  Alcotest.(check bool) "has candidates" true (cands <> []);
  List.iter
    (fun c -> if c = t then Alcotest.fail "shrink proposed the scenario itself")
    cands;
  (match cands with
  | first :: _ ->
      Alcotest.(check int) "first candidate drops the fault schedule" 0
        (List.length first.Scenario.faults)
  | [] -> ());
  (* shrinking terminates: repeatedly taking the first candidate reaches a
     fixpoint *)
  let rec descend t steps =
    if steps > 200 then Alcotest.fail "shrink does not terminate"
    else match Scenario.shrink t with [] -> steps | c :: _ -> descend c (steps + 1)
  in
  ignore (descend t 0 : int)

let test_repro_rendering () =
  let seen_batch = ref false and seen_serve = ref false and seen_fleet = ref false in
  for seed = 0 to 60 do
    let t = Scenario.generate ~mode:Scenario.Smoke ~seed in
    let repro = Scenario.to_repro t in
    let has frag =
      let n = String.length repro and m = String.length frag in
      let rec go i = i + m <= n && (String.sub repro i m = frag || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "repro carries --check" true (has "--check");
    Alcotest.(check bool) "repro carries the seed" true
      (has (Printf.sprintf "--seed %d" t.Scenario.seed));
    (if t.Scenario.faults <> [] then
       Alcotest.(check bool) "faulty repro carries --faults" true (has "--faults"));
    match t.Scenario.kind with
    | Scenario.Batch _ ->
        seen_batch := true;
        Alcotest.(check bool) "batch repro uses charm_run" true (has "charm_run")
    | Scenario.Serve _ ->
        seen_serve := true;
        Alcotest.(check bool) "serve repro uses charm_serve" true
          (has "charm_serve")
    | Scenario.Fleet f ->
        seen_fleet := true;
        Alcotest.(check bool) "fleet repro uses --fleet" true
          (has (Printf.sprintf "--fleet %d" f.Scenario.shards));
        Alcotest.(check bool) "fleet repro names the router policy" true
          (has "--router");
        if f.Scenario.fshard_faults <> [] then
          Alcotest.(check bool) "fleet repro carries --faults-shard" true
            (has "--faults-shard")
  done;
  Alcotest.(check bool) "all scenario kinds exercised" true
    (!seen_batch && !seen_serve && !seen_fleet)

let test_repro_names_plant () =
  (* the plant is process state outside the scenario: without it on the
     line a pasted repro would run clean *)
  let module Plant = Chipsim.Invariant.Plant in
  let t = Scenario.generate ~mode:Scenario.Smoke ~seed:0 in
  let suffix = " --plant vote-skip" in
  Alcotest.(check bool) "no plant, no flag" false
    (String.ends_with ~suffix (Scenario.to_repro t));
  Plant.set (Some Plant.Vote_skip);
  let repro =
    Fun.protect ~finally:(fun () -> Plant.set None) (fun () -> Scenario.to_repro t)
  in
  Alcotest.(check bool) ("repro names the plant: " ^ repro) true
    (String.ends_with ~suffix repro)

let test_fault_spec_roundtrip () =
  let t = scenario_with_faults () in
  let topo =
    Harness.Systems.topology t.Scenario.machine ~cache_scale:t.Scenario.cache_scale
  in
  let spec = Faults.Schedule.to_spec t.Scenario.faults in
  let reparsed = Faults.Schedule.parse_exn ~topo spec in
  Alcotest.(check int) "same event count"
    (List.length t.Scenario.faults)
    (List.length reparsed)

let suite =
  [
    Alcotest.test_case "generation deterministic" `Quick test_generation_deterministic;
    Alcotest.test_case "smoke seeds clean" `Slow test_smoke_seeds_clean;
    Alcotest.test_case "shrink candidates well-formed" `Quick test_shrink_candidates;
    Alcotest.test_case "repro rendering" `Quick test_repro_rendering;
    Alcotest.test_case "repro names the plant" `Quick test_repro_names_plant;
    Alcotest.test_case "fault specs round-trip" `Quick test_fault_spec_roundtrip;
  ]
