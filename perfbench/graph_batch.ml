(* graph-batch: the paper's own workload class.  CHARM with 32 workers on
   the AMD Milan preset (2 sockets x 8 chiplets, caches scaled 1:16) runs
   BFS and then PageRank over one Kronecker graph.  The graph exceeds a
   chiplet's scaled L3, so remote-chiplet fills decide the result and the
   access path does nearly all the work.  No serving, fleet, DAG or
   energy code runs, so an optimisation of those layers must leave this
   workload unchanged.  Each op is one kernel run, checked against the
   sequential reference.

   The graph is one fixed Kronecker draw and the seed picks the BFS
   source.  Different draws at this scale move the hubs' memory layout
   and with it the host cost per simulated event by up to a third
   (2.19M to 2.96M events/s over four generator seeds, same host),
   which would swamp every regression bound. *)

open Workloads
module Sys_ = Harness.Systems
module Span = Perfbench_lib.Span

let graph_scale = 16
let workers = 32
let cache_scale = 16
let graph_seed = 42

(* PageRank sums in scheduling order, so it matches the sequential
   reference only up to float reassociation. *)
let pagerank_tolerance = 1e-9

(* a seeded source that is not isolated *)
let pick_source g ~seed =
  let n = g.Csr.n in
  let start = Engine.Rng.int (Engine.Rng.create seed) n in
  let rec go k =
    let v = (start + k) mod n in
    if k >= n || Csr.degree g v > 0 then v else go (k + 1)
  in
  go 0

let prepare ~seed ~check tracer =
  let inst =
    Span.with_ tracer "harness.make" (fun () ->
        Sys_.make ~cache_scale Sys_.Charm Sys_.Amd_milan ~n_workers:workers ())
  in
  let env = inst.Sys_.env in
  if check then Engine.Sched.set_check env.Exec_env.sched true;
  Pass.trace_hooks tracer env.Exec_env.sched;
  let marks = Pass.marks ?tracer ~stride:50 env.Exec_env.sched in
  let g =
    Span.with_ tracer "workloads.dataset" (fun () ->
        Csr.of_kronecker
          ~alloc:(fun ~elt_bytes ~count -> env.Exec_env.alloc_shared ~elt_bytes ~count)
          (Kronecker.generate ~seed:graph_seed ~scale:graph_scale ()))
  in
  let source = pick_source g ~seed in
  fun () ->
    let (levels, ranks), run_s, alloc_words, probe_ns =
      Pass.timed ~marks (fun () ->
          let levels, _ = Span.with_ tracer "engine.run" (fun () -> Bfs.run env g ~source) in
          let ranks, _ = Span.with_ tracer "engine.run" (fun () -> Pagerank.run env g ()) in
          (levels, ranks))
    in
    let errors =
      Span.with_ tracer "bench.check" (fun () ->
          let bfs_ok = levels = Bfs.reference g ~source in
          let expected = Pagerank.reference g () in
          let err = ref 0.0 in
          Array.iteri (fun i r -> err := Float.max !err (Float.abs (r -. expected.(i)))) ranks;
          (if bfs_ok then [] else [ "BFS levels differ from Bfs.reference" ])
          @
          if !err <= pagerank_tolerance then []
          else
            [
              Printf.sprintf "PageRank max error %g exceeds %g" !err
                pagerank_tolerance;
            ])
    in
    let stats = Sys_.report inst in
    let rt = Option.get inst.Sys_.charm in
    let failed = List.length errors in
    {
      Pass.events = Pass.engine_events inst.Sys_.machine;
      run_s;
      alloc_words;
      probe_ns;
      makespan_ns = stats.Engine.Stats.makespan_ns;
      attempted = 2;
      failed;
      good = 2 - failed;
      energy_pj = Chipsim.Machine.combined_energy_pj inst.Sys_.machine;
      latency = None;
      queue_wait = None;
      fingerprint =
        Perfbench_lib.Stats.fingerprint
          ~events:(Pass.engine_events inst.Sys_.machine)
          ~makespan_ns:stats.Engine.Stats.makespan_ns
          ~outputs:(Marshal.to_string (levels, ranks) []);
      counts = Pass.machine_counts [ stats ] @ Pass.runtime_counts rt;
      errors;
    }
