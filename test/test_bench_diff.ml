(* [bench diff]: each committed baseline passes against itself, and every
   gate of every schema fails on a doctored copy. *)

open Bench
module Json = Engine.Json

let baselines =
  [
    ("../BENCH_core.json", Core_bench.diff_schema);
    ("../BENCH_power.json", Power_bench.diff_schema);
    ("../BENCH_taskgraph.json", Taskgraph_bench.diff_schema);
    ("../BENCH_fleet.json", Fleet_bench.diff_schema);
  ]

let load file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  match Result.bind (Json.parse text) Bench_diff.rows with
  | Ok rows -> rows
  | Error e -> Alcotest.failf "%s: %s" file e

(* [file]'s rows with [key] rewritten by [f] in the first row holding it *)
let doctor file key f =
  let seen = ref false in
  List.map (fun r ->
      if !seen || not (List.mem_assoc key r) then r
      else (seen := true; List.map (fun (k, v) -> (k, if k = key then f v else v)) r))
    (load file)

let shift by = function Json.Number x -> Json.Number (by x) | v -> v
let failures (file, schema) rows = snd (Bench_diff.diff schema ~old:(load file) ~new_:rows)
let fails name b rows = Alcotest.(check bool) (name ^ " fails") true (failures b rows <> [])

let test_committed_passes () =
  List.iter (fun ((file, schema) as b) ->
      Alcotest.(check (list string)) file [] (failures b (load file));
      Alcotest.(check (option string)) "experiment" (Some schema.Bench_diff.experiment)
        (Bench_diff.experiment_of (load file)))
    baselines

(* events+1 for core, power and taskgraph, core makespan drift, and the
   fleet job outcomes *)
let test_exact_keys () =
  List.iter (fun ((file, schema) as b) ->
      List.iter (fun k -> fails (file ^ " " ^ k ^ "+1") b (doctor file k (shift (( +. ) 1.0))))
        schema.Bench_diff.exact)
    baselines

let test_toleranced_gates () =
  let core = List.hd baselines and power = List.nth baselines 1 in
  fails "events/s x0.79" core (doctor (fst core) "events_per_s" (shift (( *. ) 0.79)));
  fails "words x1.03" core (doctor (fst core) "alloc_words_per_event" (shift (( *. ) 1.03)));
  fails "power x1.21" power (doctor (fst power) "avg_power_mw" (shift (( *. ) 1.21)));
  Alcotest.(check (list string)) "within bounds" []
    (failures core (doctor (fst core) "events_per_s" (shift (( *. ) 0.81)))
    @ failures core (doctor (fst core) "alloc_words_per_event" (shift (( *. ) 1.01)))
    @ failures power (doctor (fst power) "avg_power_mw" (shift (( *. ) 1.19))))

let test_missing_row_and_false_verdict () =
  List.iter (fun ((file, _) as b) ->
      fails (file ^ " missing row") b (List.tl (load file));
      let keys = List.concat_map (List.map fst) (load file) in
      match List.find_opt (String.starts_with ~prefix:"verdict_") keys with
      | Some v -> fails (file ^ " false verdict") b (doctor file v (fun _ -> Json.Bool false))
      | None -> ())
    baselines

let () =
  Alcotest.run "bench"
    [
      ( "bench-diff",
        [
          Alcotest.test_case "committed baselines pass" `Quick test_committed_passes;
          Alcotest.test_case "exact keys" `Quick test_exact_keys;
          Alcotest.test_case "toleranced gates" `Quick test_toleranced_gates;
          Alcotest.test_case "missing row and false verdict" `Quick
            test_missing_row_and_false_verdict;
        ] );
    ]
