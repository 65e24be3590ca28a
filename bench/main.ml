(* Bench driver: regenerates every table and figure of the paper's
   evaluation.  Run with no arguments for the full suite, or pass
   experiment names (fig1 fig3 fig4 fig5 fig7 tab1 fig8 fig9 tab2 fig10
   fig11 fig12 fig13 fig14 ablation micro serve fault fleet taskgraph power
   core) to run a subset.  [--json FILE] additionally writes
   machine-readable result rows for experiments that emit them (currently:
   fleet, taskgraph, power and core, whose committed baselines
   BENCH_fleet.json / BENCH_taskgraph.json / BENCH_power.json /
   BENCH_core.json CI diffs against).

   [diff OLD NEW] instead compares two such files under the schema the
   rows' experiment declares (see {!Bench_diff}); it exits 1 when a gate
   fails and 2 on a bad file or an experiment without a schema. *)

open Bench

let experiments =
  [
    ("fig3", Fig3.run);
    ("fig4", Fig4.run);
    ("fig5", Fig5.run);
    ("fig7", Fig7.run);
    ("tab1", Tab1.run);
    ("fig8", Fig8.run);
    ("fig9", Fig9.run);
    ("tab2", Fig9.run_tab2);
    ("fig10", Fig10.run);
    ("fig11", Fig11.run);
    ("fig12", Fig12.run);
    ("fig13", Fig13.run);
    ("fig14", Fig14.run);
    ("fig1", Fig1.run);
    ("ablation", Ablation.run);
    ("micro", Micro.run);
    ("serve", Serve.run);
    ("fault", Fault.run);
    ("fleet", Fleet_bench.run);
    ("taskgraph", Taskgraph_bench.run);
    ("power", Power_bench.run);
    ("core", Core_bench.run);
  ]

let diff_schemas =
  [ Core_bench.diff_schema; Power_bench.diff_schema; Taskgraph_bench.diff_schema;
    Fleet_bench.diff_schema ]

(* [split_flag flag args] removes the first [flag VALUE] pair from [args] *)
let split_flag flag args =
  let rec go acc = function
    | f :: v :: rest when f = flag -> (Some v, List.rev_append acc rest)
    | a :: rest -> go (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  go [] args

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with
  | [ "diff"; old_file; new_file ] -> exit (Bench_diff.run diff_schemas old_file new_file)
  | "diff" :: _ -> prerr_endline "bench diff: usage: diff OLD.json NEW.json"; exit 2
  | _ -> ());
  (* [--trace FILE] attaches one shared trace sink to every instance the
     requested experiments build and writes the Chrome-trace JSON at the
     end; [--json FILE] collects machine-readable result rows from every
     experiment that emits them and writes one JSON document at exit;
     [--topology SPEC] re-runs the requested figures on a data-driven
     topology (file path or inline spec) instead of their preset machine;
     remaining arguments select experiments *)
  let trace_file, args = split_flag "--trace" args in
  let json_file, args = split_flag "--json" args in
  let topology_spec, names = split_flag "--topology" args in
  Util.json_sink := json_file;
  at_exit Util.json_write;
  (match topology_spec with
  | None -> ()
  | Some spec -> (
      match Harness.Systems.custom_machine_of_spec spec with
      | Ok m -> Util.machine_override := Some m
      | Error msg ->
          Printf.eprintf "bench: bad --topology spec: %s\n" msg;
          exit 2));
  (match trace_file with
  | Some _ -> Util.trace_sink := Some (Engine.Trace.create ())
  | None -> ());
  let requested = match names with [] -> List.map fst experiments | _ -> names in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run ->
          let start = Unix.gettimeofday () in
          run ();
          Printf.printf "  [%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. start)
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
    requested;
  (match (trace_file, !Util.trace_sink) with
  | Some file, Some tr ->
      Engine.Trace.save tr file;
      Printf.printf "\nwrote %d trace events to %s\n%s"
        (Engine.Trace.num_events tr) file (Engine.Trace.summary tr)
  | _ -> ());
  Printf.printf "\nAll requested experiments finished in %.1fs.\n"
    (Unix.gettimeofday () -. t0)
