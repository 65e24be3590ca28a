(* Shared bench machinery: build environments, run the six graph-suite
   workloads, format paper-style tables. *)

open Workloads
module Sys_ = Harness.Systems

(* Optional trace sink shared by every instance a figure builds: set by the
   driver's [--trace FILE] flag, attached by {!run_graph_bench} (and any
   figure that calls {!attach_trace} on its own instances), written once at
   the end of the run.  All experiments append to one ring, so the file
   holds the newest window across the whole bench invocation. *)
let trace_sink : Engine.Trace.t option ref = ref None

let attach_trace inst =
  match !trace_sink with
  | None -> ()
  | Some tr -> (
      match inst.Sys_.charm with
      | Some rt -> Charm.Runtime.attach_trace rt tr
      | None ->
          Engine.Sched.set_trace inst.Sys_.env.Exec_env.sched (Some tr))

(* Optional machine-readable sink: set by the driver's [--json FILE] flag;
   experiments append flat rows of pre-rendered JSON values alongside their
   human tables, and the driver writes the file once at exit, so a bench
   that fails its verdict still leaves its rows.  [bench diff] (see
   {!Bench_diff}) compares such a file with a committed BENCH_*.json. *)
let json_sink : string option ref = ref None
let json_rows : string list ref = ref []
let json_num f = Printf.sprintf "%.6g" f

let json_row ~experiment kvs =
  if !json_sink <> None then
    json_rows := Engine.Json.obj (("experiment", Engine.Json.str experiment) :: kvs) :: !json_rows

let json_write () =
  match !json_sink with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      Printf.fprintf oc "{\"rows\":[\n%s\n]}\n"
        (String.concat ",\n" (List.rev !json_rows));
      close_out oc;
      Printf.printf "\nwrote %d bench rows to %s\n"
        (List.length !json_rows) file

(* Optional machine override: set by the driver's [--topology SPEC] flag.
   Figures route their preset through {!machine} when building instances,
   so one flag re-runs any figure on a data-driven topology. *)
let machine_override : Sys_.machine_kind option ref = ref None
let machine kind = match !machine_override with Some m -> m | None -> kind

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n" title

let row fmt = Printf.printf fmt

(* Default evaluation scale: graphs at 2^13 vertices with caches scaled
   1:16 keep the paper's working-set : L3 ratio at tractable runtime. *)
let default_cache_scale = 16
let default_graph_scale = 14

type graph_bench = Bfs | Pr | Cc | Sssp | Gups_w | G500

let graph_bench_name = function
  | Bfs -> "BFS"
  | Pr -> "PR"
  | Cc -> "CC"
  | Sssp -> "SSSP"
  | Gups_w -> "GUPS"
  | G500 -> "Graph500"

let all_graph_benches = [ Bfs; Pr; Cc; Sssp; Gups_w; G500 ]

(* Edge lists are deterministic per scale; cache them across systems so
   every system sees the same graph. *)
let kron_cache : (int, Kronecker.t) Hashtbl.t = Hashtbl.create 8

let kron ~scale =
  match Hashtbl.find_opt kron_cache scale with
  | Some k -> k
  | None ->
      let k = Kronecker.generate ~scale ~edge_factor:16 () in
      Hashtbl.add kron_cache scale k;
      k

let build_graph env ~scale ~weighted =
  Csr.of_kronecker ~weighted
    ~alloc:(fun ~elt_bytes ~count -> env.Exec_env.alloc_shared ~elt_bytes ~count)
    (kron ~scale)

(* a BFS/SSSP source must not be isolated (vertex 0 can be, after the
   Graph500 label permutation) *)
let pick_source g =
  let rec go v = if v >= g.Csr.n || Csr.degree g v > 0 then min v (g.Csr.n - 1) else go (v + 1) in
  go 0

(* Throughput of one graph-suite workload in work-items per second of
   virtual time (edges/s for the graph algorithms, updates/s for GUPS). *)
let run_graph_bench ?(cache_scale = default_cache_scale)
    ?(graph_scale = default_graph_scale) ~sys ~kind ~workers bench =
  let inst = Sys_.make ~cache_scale sys (machine kind) ~n_workers:workers () in
  attach_trace inst;
  let env = inst.Sys_.env in
  let result =
    match bench with
    | Bfs ->
        let g = build_graph env ~scale:graph_scale ~weighted:false in
        snd (Bfs.run env g ~source:(pick_source g))
    | Pr ->
        let g = build_graph env ~scale:graph_scale ~weighted:false in
        snd (Pagerank.run env g ())
    | Cc ->
        let g = build_graph env ~scale:graph_scale ~weighted:false in
        snd (Concomp.run env g)
    | Sssp ->
        let g = build_graph env ~scale:graph_scale ~weighted:true in
        snd (Sssp.run env g ~source:(pick_source g))
    | Gups_w ->
        (* table size tracks the graph scale, as the paper's Fig. 10 sweep
           controls the number of vertices *)
        Gups.run env
          { Gups.table_words = 1 lsl (graph_scale + 6); updates = 1 lsl 16; seed = 17 }
    | G500 ->
        let g = build_graph env ~scale:graph_scale ~weighted:false in
        Graph500.run env g
          { Graph500.scale = graph_scale; edge_factor = 16; roots = 2; seed = 99 }
  in
  (Workload_result.throughput_per_s result, inst)

let sys_label sys = Sys_.sys_name sys

let pp_throughput t =
  if t >= 1e9 then Printf.sprintf "%.2fG" (t /. 1e9)
  else if t >= 1e6 then Printf.sprintf "%.2fM" (t /. 1e6)
  else Printf.sprintf "%.0fk" (t /. 1e3)
