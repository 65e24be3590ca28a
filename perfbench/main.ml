(* The repository benchmark: three workloads over the CHARM simulator,
   host-side and simulated end-to-end metrics, and a traced per-layer
   table.  See README.md in this directory for why each workload was
   chosen and which layer metric should move which end-to-end metric.

     dune exec --root . --profile release -- perfbench/main.exe \
       --workload graph-batch|serve-mix|fleet-dag|all --seed N \
       --seconds 25 --trace 0|1

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. *)

module Span = Perfbench_lib.Span
module Stats = Perfbench_lib.Stats
module Histogram = Serving.Histogram

type workload = {
  name : string;
  prepare : seed:int -> check:bool -> Span.t option -> unit -> Pass.t;
  probe : (Span.t -> seed:int -> int * int * string list) option;
      (** extra layer calls made after the traced repetitions: calls,
          bytes, failed checks *)
}

let workloads =
  [
    { name = "graph-batch"; prepare = Graph_batch.prepare; probe = None };
    { name = "serve-mix"; prepare = Serve_mix.prepare; probe = None };
    { name = "fleet-dag"; prepare = Fleet_dag.prepare; probe = Some Fleet_dag.probe_mapper };
  ]

(* The default seed, and the held-out seed on which a later performance
   claim is confirmed (never used while tuning a change). *)
let default_seed = 42
let held_out_seed = 1729

(* Repetitions per run at the least, however short [--seconds] is: the
   medians need three samples. *)
let min_reps = 3

(* Set-up samples per run at the least, unless the extra set-ups would
   take longer than the budget.  The first set-ups of a process run
   slower than later ones (serve-mix: 24 ms falling to 12 ms), so cheap
   set-ups are sampled well past them. *)
let min_setup_samples = 31
let extra_setup_budget_s = 3.0

let secs_since t0 = float_of_int (Span.now_ns () - t0) /. 1e9

(* One repetition: set-up (timed on its own), then the timed pass.  The
   heap is compacted first, so the garbage of earlier repetitions does not
   make later ones slower, and the heap peak does not depend on how many
   repetitions a run fits in. *)
let rep w ~seed ~check tracer =
  Gc.compact ();
  let t0 = Span.now_ns () in
  let run = w.prepare ~seed ~check tracer in
  let setup_s = secs_since t0 in
  (setup_s, run ())

type outcome = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  attempted : int;
  failed : int;
  errors : string list;
}

(* Outside the timed runs: one pass with every executable invariant on
   (the serving config's [check], [Sched.set_check] for graph-batch).  A
   violation or a failed output check fails the benchmark. *)
let invariant_pass w ~seed =
  match rep w ~seed ~check:true None with
  | _, p ->
      (List.map (fun e -> "invariant pass: " ^ e) p.Pass.errors, Some p.Pass.fingerprint)
  | exception Chipsim.Invariant.Violation msg ->
      ([ "invariant violated: " ^ msg ], None)

let fingerprint_errors fps =
  match Stats.fingerprint_mismatch fps with
  | None -> []
  | Some d -> [ "simulated fingerprint differs across repetitions of one seed: " ^ d ]

let jobs_latency (p : Pass.t) =
  match p.Pass.latency with
  | Some h -> (Histogram.p50 h /. 1e3, Histogram.p99 h /. 1e3, Histogram.count h)
  | None -> (0.0, 0.0, 0)

(* A pass's simulated events per host second, read at the probe's
   reference speed. *)
let events_per_s (p : Pass.t) =
  float_of_int p.Pass.events /. p.Pass.run_s
  *. Stats.slowdown ~ref_ns:Pass.probe_ref_ns p.Pass.probe_ns

(* --trace 0: repeat set-up + timed pass for [seconds], then report the
   end-to-end metrics: host figures as medians over the repetitions.
   Simulated figures repeat exactly, so they come from the first
   repetition. *)
let end_to_end w ~seed ~seconds =
  let t0 = Span.now_ns () in
  let reps = ref [] in
  while List.length !reps < min_reps || secs_since t0 < seconds do
    reps := rep w ~seed ~check:false None :: !reps
  done;
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let reps = List.rev !reps in
  (* more set-up samples where set-up is cheap, so its median is steady;
     each after a compaction, as in [rep] *)
  let extra = ref [] and e0 = Span.now_ns () in
  while List.length reps + List.length !extra < min_setup_samples && secs_since e0 < extra_setup_budget_s do
    Gc.compact ();
    let t0 = Span.now_ns () in
    ignore (w.prepare ~seed ~check:false None : unit -> Pass.t);
    extra := secs_since t0 :: !extra
  done;
  let setup_samples = List.map fst reps @ !extra in
  let passes = List.map snd reps in
  let inv_errors, inv_fp = invariant_pass w ~seed in
  let p = List.hd passes in
  let makespan_s = p.Pass.makespan_ns /. 1e9 in
  let attempted = List.fold_left (fun acc q -> acc + q.Pass.attempted) 0 passes in
  let failed = List.fold_left (fun acc q -> acc + q.Pass.failed) 0 passes in
  let p50, p99, n_lat = jobs_latency p in
  (* printed for reading, not part of the JSON: see README.md *)
  Printf.printf "%s seed %d: %d repetitions, %d simulated events each\n" w.name seed
    (List.length passes) p.Pass.events;
  Printf.printf "  %-26s %.0f events/s\n" "raw_events_per_s"
    (Stats.median (List.map (fun q -> float_of_int q.Pass.events /. q.Pass.run_s) passes));
  Printf.printf "  %-26s %.3f\n" "host_slowdown"
    (Stats.median
       (List.map (fun q -> Stats.slowdown ~ref_ns:Pass.probe_ref_ns q.Pass.probe_ns) passes));
  Printf.printf "  %-26s %.6f\n" "fail_share" (float_of_int failed /. float_of_int attempted);
  if n_lat > 0 then begin
    Printf.printf "  %-26s %.3f us (n=%d)\n" "sim_p50_us" p50 n_lat;
    Printf.printf "  %-26s %.3f us (n=%d%s)\n" "sim_p99_us" p99 n_lat
      (match Stats.tail_bp ~n:n_lat with
      | Some bp when bp >= 9900 -> ""
      | Some bp -> "; too few samples, highest valid is " ^ Stats.percentile_name bp
      | None -> "; too few samples for any tail")
  end;
  {
    metrics =
      [
        ("setup_s", Stats.median setup_samples, "s");
        ("sim_events_per_s", Stats.median (List.map events_per_s passes), "events/s");
        ( "alloc_words_per_event",
          Stats.median (List.map (fun q -> q.Pass.alloc_words /. float_of_int q.Pass.events) passes),
          "words/event" );
        ("peak_heap_mb", peak_heap_mb, "MB");
        ("sim_makespan_us", p.Pass.makespan_ns /. 1e3, "us");
        ("sim_goodput_jobs_per_s", float_of_int p.Pass.good /. makespan_s, "jobs/s");
        ("sim_avg_power_mw", p.Pass.energy_pj /. p.Pass.makespan_ns, "mW");
      ];
    attempted;
    failed;
    errors =
      List.concat_map (fun q -> q.Pass.errors) passes
      @ inv_errors
      @ fingerprint_errors
          (List.map (fun q -> q.Pass.fingerprint) passes @ Option.to_list inv_fp);
  }

(* Share of the traced wall time that no named layer span covers; the
   layer self times must add up to the traced wall within this. *)
let unattributed_tolerance = 0.10

let spans_dir = Filename.concat "perfbench" "out"

(* --trace 1: alternate an untraced and a traced repetition (set-up and
   pass) for [seconds]; per-layer figures are per traced repetition,
   averaged, and the tracing overhead is the difference of the two
   median walls. *)
let per_layer w ~seed ~seconds =
  let t0 = Span.now_ns () in
  let untraced = ref [] and traced = ref [] in
  while !traced = [] || secs_since t0 < seconds do
    let u0 = Span.now_ns () in
    let _, pu = rep w ~seed ~check:false None in
    untraced := (secs_since u0, pu) :: !untraced;
    let tr = Span.create ~workload:w.name in
    let gc0 = Gc.quick_stat () in
    let root = Span.enter tr "bench.rep" in
    let _, pt = rep w ~seed ~check:false (Some tr) in
    Span.leave tr root;
    let gc1 = Gc.quick_stat () in
    traced := (tr, pt, gc0, gc1) :: !traced
  done;
  let probe =
    Option.map
      (fun f ->
        let tr = Span.create ~workload:w.name in
        let calls, bytes, errors = f tr ~seed in
        (tr, calls, bytes, errors))
      w.probe
  in
  let n = float_of_int (List.length !traced) in
  let self = Hashtbl.create 16 in
  let unattributed = ref [] in
  List.iter
    (fun (tr, _, _, _) ->
      let wall = float_of_int (Span.total_ns tr "bench.rep") in
      let attributed = ref 0.0 in
      Hashtbl.iter
        (fun name (s : Span.self) ->
          if name <> "bench.rep" then attributed := !attributed +. float_of_int s.Span.self_ns;
          let prev = Option.value (Hashtbl.find_opt self name) ~default:(0.0, 0.0, 0) in
          let ns, words, calls = prev in
          Hashtbl.replace self name
            (ns +. float_of_int s.Span.self_ns, words +. s.Span.self_words, calls + s.Span.calls))
        (Span.self_by_name tr);
      unattributed := (1.0 -. (!attributed /. wall)) :: !unattributed)
    !traced;
  let self_s name = match Hashtbl.find_opt self name with Some (ns, _, _) -> ns /. n /. 1e9 | None -> 0.0 in
  let self_words name = match Hashtbl.find_opt self name with Some (_, w, _) -> w /. n | None -> 0.0 in
  let calls name = match Hashtbl.find_opt self name with Some (_, _, c) -> float_of_int c /. n | None -> 0.0 in
  let tr_last, p, gc0, gc1 = List.hd !traced in
  let count name = Option.value (List.assoc_opt name p.Pass.counts) ~default:0.0 in
  let events = float_of_int p.Pass.events in
  let engine_spans = [ "engine.run"; "serve.drain"; "fleet.run" ] in
  let engine_s = List.fold_left (fun acc s -> acc +. self_s s) 0.0 engine_spans in
  let engine_words = List.fold_left (fun acc s -> acc +. self_words s) 0.0 engine_spans in
  let hook_calls = calls "core.quantum_hook" in
  let p50, p99, n_lat = jobs_latency p in
  let qwait_p99 = match p.Pass.queue_wait with Some h -> Histogram.p99 h /. 1e3 | None -> 0.0 in
  let map_calls, map_s, map_bytes, probe_errors =
    match probe with
    | Some (tr, calls, bytes, errors) ->
        (float_of_int calls, float_of_int (Span.total_ns tr "taskgraph.map") /. 1e9, float_of_int bytes, errors)
    | None -> (0.0, 0.0, 0.0, [])
  in
  let traced_wall =
    Stats.median (List.map (fun (tr, _, _, _) -> float_of_int (Span.total_ns tr "bench.rep") /. 1e9) !traced)
  in
  let unattributed_share = Stats.median !unattributed in
  (try
     if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
     let file = Filename.concat spans_dir (Printf.sprintf "spans-%s-%d.json" w.name seed) in
     Span.write_chrome tr_last file;
     Printf.printf "wrote %d spans to %s\n" (Span.count tr_last) file
   with Sys_error msg -> Printf.printf "spans not written: %s\n" msg);
  let metrics =
    [
      ("harness.make_s", self_s "harness.make", "s");
      ("workloads.dataset_s", self_s "workloads.dataset", "s");
      ("engine.run_self_s", engine_s, "s");
      ("engine.ns_per_event", engine_s *. 1e9 /. events, "ns/event");
      ("engine.alloc_words_per_event", engine_words /. events, "words/event");
      ("engine.quanta", count "engine.quanta", "count");
      ("engine.steals", count "engine.steals", "count");
      ("engine.migrations", count "engine.migrations", "count");
      ("engine.tasks_executed", count "engine.tasks_executed", "count");
      ("chipsim.accesses", count "chipsim.accesses", "count");
      ("chipsim.l2_hits", count "chipsim.l2_hits", "count");
      ("chipsim.local_chiplet", count "chipsim.local_chiplet", "count");
      ("chipsim.remote_chiplet", count "chipsim.remote_chiplet", "count");
      ("chipsim.remote_numa", count "chipsim.remote_numa", "count");
      ("chipsim.dram", count "chipsim.dram", "count");
      ("chipsim.remote_fill_share", count "chipsim.remote_fill_share", "ratio");
      ("core.quantum_hook_calls", hook_calls, "count");
      ("core.quantum_hook_s", self_s "core.quantum_hook", "s");
      ( "core.quantum_hook_ns",
        (if hook_calls > 0.0 then self_s "core.quantum_hook" *. 1e9 /. hook_calls else 0.0),
        "ns/call" );
      ("core.steal_order_calls", calls "core.steal_order", "count");
      ("core.steal_order_s", self_s "core.steal_order", "s");
      ("core.policy_migrations", count "core.policy_migrations", "count");
      ("core.power_cap_sheds", count "core.power_cap_sheds", "count");
      ("serve.submit_calls", calls "serve.submit", "count");
      ("serve.submit_s", self_s "serve.submit", "s");
      ("serve.admitted", count "serve.admitted", "count");
      ("serve.shed", count "serve.shed", "count");
      ("serve.drain_calls", calls "serve.drain", "count");
      ("serve.finish_s", self_s "serve.finish", "s");
      ("serve.queue_wait_p99_us", qwait_p99, "us");
      ("serve.latency_p50_us", p50, "us");
      ("serve.latency_p99_us", p99, "us");
      ("serve.latency_samples", float_of_int n_lat, "count");
      ("fleet.run_s", self_s "fleet.run", "s");
      ("fleet.epochs", count "fleet.epochs", "count");
      ("fleet.relocations", count "fleet.relocations", "count");
      ("fleet.router_shed", count "fleet.router_shed", "count");
      ("fleet.shard_event_imbalance", count "fleet.shard_event_imbalance", "ratio");
      ("taskgraph.map_calls", map_calls, "count");
      ("taskgraph.map_us", (if map_calls > 0.0 then map_s *. 1e6 /. map_calls else 0.0), "us/call");
      ("taskgraph.cross_bytes", map_bytes, "bytes");
      ("gc.minor_collections", float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections), "count");
      ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections), "count");
      ("trace.overhead_s", traced_wall -. Stats.median (List.map fst !untraced), "s");
      ("trace.unattributed_share", unattributed_share, "ratio");
      ("trace.spans", float_of_int (Span.count tr_last), "count");
    ]
  in
  let passes = List.map snd !untraced @ List.map (fun (_, p, _, _) -> p) !traced in
  {
    metrics;
    attempted = List.fold_left (fun acc q -> acc + q.Pass.attempted) 0 passes;
    failed = List.fold_left (fun acc q -> acc + q.Pass.failed) 0 passes;
    errors =
      List.concat_map (fun q -> q.Pass.errors) passes
      @ probe_errors
      @ fingerprint_errors (List.map (fun q -> q.Pass.fingerprint) passes)
      @
      if unattributed_share <= unattributed_tolerance then []
      else
        [
          Printf.sprintf "layer self times cover only %.1f%% of the traced wall (tolerance %.0f%%)"
            (100.0 *. (1.0 -. unattributed_share)) (100.0 *. unattributed_tolerance);
        ];
  }

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_table title (o : outcome) =
  Printf.printf "%s\n" title;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-30s %18.6f %s\n" name v unit) o.metrics;
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) o.errors

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
          metrics))

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " graph-batch, serve-mix, fleet-dag or all");
      ( "--seed",
        Arg.Set_int seed,
        Printf.sprintf " workload seed (default %d; held-out seed %d)" default_seed held_out_seed );
      ("--seconds", Arg.Set_int seconds, " how long one run measures (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: traced per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  if !seconds < 1 then fail "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let selected =
    if !workload = "all" then workloads
    else
      match List.find_opt (fun w -> w.name = !workload) workloads with
      | Some w -> [ w ]
      | None -> fail (Printf.sprintf "unknown workload %S (%s)" !workload usage)
  in
  let seconds = float_of_int !seconds in
  let modes = if !workload = "all" then [ 0; 1 ] else [ !trace ] in
  let outcomes =
    List.concat_map
      (fun w ->
        List.map
          (fun mode ->
            let o =
              if mode = 0 then end_to_end w ~seed:!seed ~seconds
              else per_layer w ~seed:!seed ~seconds
            in
            print_table
              (Printf.sprintf "== %s, %s" w.name
                 (if mode = 0 then "end-to-end metrics" else "per-layer metrics (traced run)"))
              o;
            (w, o))
          modes)
      selected
  in
  let correct = List.for_all (fun (_, o) -> o.errors = []) outcomes in
  let attempted = List.fold_left (fun acc (_, o) -> acc + o.attempted) 0 outcomes in
  let failed = List.fold_left (fun acc (_, o) -> acc + o.failed) 0 outcomes in
  let metrics =
    match outcomes with
    | [ (_, o) ] -> o.metrics
    | _ ->
        List.concat_map
          (fun (w, o) -> List.map (fun (name, v, unit) -> (w.name ^ "/" ^ name, v, unit)) o.metrics)
          outcomes
  in
  print_endline (result_json ~correct ~attempted ~failed metrics);
  if not correct then exit 1
