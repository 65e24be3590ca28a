open Chipsim
module Sched = Engine.Sched

type kind =
  | Bfs
  | Pagerank
  | Gups of int
  | Tpch of int
  | Ycsb_batch of int
  | Dag of Taskgraph.Graph.shape * int

let kind_name = function
  | Bfs -> "bfs"
  | Pagerank -> "pagerank"
  | Gups n -> Printf.sprintf "gups:%d" n
  | Tpch q -> Printf.sprintf "tpch:%d" q
  | Ycsb_batch n -> Printf.sprintf "ycsb:%d" n
  | Dag (shape, layers) ->
      Printf.sprintf "dag:%s:%d" (Taskgraph.Graph.shape_name shape) layers

let default_gups_updates = 4096
let default_ycsb_ops = 256
let default_dag_layers = 6
let max_dag_layers = 64

(* "dag" | "dag:SHAPE" | "dag:SHAPE:LAYERS" *)
let parse_dag s =
  if s = "dag" then Some (Dag (Taskgraph.Graph.Chain, default_dag_layers))
  else if String.length s > 4 && String.sub s 0 4 = "dag:" then
    let rest = String.sub s 4 (String.length s - 4) in
    let shape_s, layers_s =
      match String.index_opt rest ':' with
      | None -> (rest, None)
      | Some i ->
          ( String.sub rest 0 i,
            Some (String.sub rest (i + 1) (String.length rest - i - 1)) )
    in
    match Taskgraph.Graph.shape_of_name shape_s with
    | None -> None
    | Some shape -> (
        match layers_s with
        | None -> Some (Dag (shape, default_dag_layers))
        | Some ls -> (
            match int_of_string_opt ls with
            | Some n when n >= 1 && n <= max_dag_layers -> Some (Dag (shape, n))
            | _ -> None))
  else None

let kind_of_string s =
  let parse_sized prefix mk default =
    if s = prefix then Some (mk default)
    else
      let plen = String.length prefix + 1 in
      if
        String.length s > plen
        && String.sub s 0 plen = prefix ^ ":"
      then
        match int_of_string_opt (String.sub s plen (String.length s - plen)) with
        | Some n when n > 0 -> Some (mk n)
        | _ -> None
      else None
  in
  match s with
  | "bfs" -> Some Bfs
  | "pr" | "pagerank" -> Some Pagerank
  | _ -> (
      match parse_dag s with
      | Some k -> Some k
      | None -> (
          match parse_sized "gups" (fun n -> Gups n) default_gups_updates with
          | Some k -> Some k
          | None -> (
              match parse_sized "tpch" (fun q -> Tpch q) 1 with
              | Some (Tpch q) when q >= 1 && q <= 22 -> Some (Tpch q)
              | Some _ | None ->
                  parse_sized "ycsb" (fun n -> Ycsb_batch n) default_ycsb_ops)))

let pick_kind rng mix =
  let total = List.fold_left (fun a (_, w) -> a + w) 0 mix in
  let r = Engine.Rng.int rng total in
  let rec go acc = function
    | [] -> assert false
    | (k, w) :: rest -> if r < acc + w then k else go (acc + w) rest
  in
  go 0 mix

type data_config = { graph_scale : int; dag_comm_aware : bool; seed : int }

let default_data_config = { graph_scale = 10; dag_comm_aware = true; seed = 7 }

(* fixed dataset sizes, small enough for serving experiments *)
let edge_factor = 8
let tpch_sf = 0.002
let ycsb_records = 4096
let gups_table_words = 1 lsl 14
let pagerank_iterations = 2

type data = {
  cfg : data_config;
  graph : Workloads.Csr.t;
  bfs_levels : Simmem.region;
  pr_ranks : Simmem.region;
  pr_next : Simmem.region;
  tpch : Olap.Tpch_data.t;
  ycsb_table : Oltp.Storage.table;
  txn : Oltp.Txn.t;
  gups_table : Simmem.region;
  alloc : elt_bytes:int -> count:int -> Simmem.region;
}

let prepare env cfg =
  let alloc ~elt_bytes ~count =
    env.Workloads.Exec_env.alloc_shared ~elt_bytes ~count
  in
  let graph =
    Workloads.Csr.of_kronecker ~weighted:false ~alloc
      (Workloads.Kronecker.generate ~seed:cfg.seed ~scale:cfg.graph_scale
         ~edge_factor ())
  in
  let n = graph.Workloads.Csr.n in
  {
    cfg;
    graph;
    bfs_levels = alloc ~elt_bytes:8 ~count:n;
    pr_ranks = alloc ~elt_bytes:8 ~count:n;
    pr_next = alloc ~elt_bytes:8 ~count:n;
    tpch = Olap.Tpch_data.generate ~alloc ~seed:(cfg.seed + 1) ~sf:tpch_sf ();
    ycsb_table =
      Oltp.Storage.create_table ~alloc ~name:"serve-usertable"
        ~rows:ycsb_records ~payload_words:13;
    txn = Oltp.Txn.create ~alloc ();
    gups_table = alloc ~elt_bytes:8 ~count:gups_table_words;
    alloc;
  }

let graph d = d.graph

(* per-item factors calibrated against measured virtual service times on
   the default datasets (charm, 32 workers, cache_scale 16): BFS ~4.6 ns
   per edge, PageRank ~3 ns per edge update, GUPS ~130 ns per RMW, TPC-H
   ~8 ns per stored row, YCSB ~600 ns per transaction *)
let cost_estimate d = function
  | Bfs -> 4.5 *. float_of_int d.graph.Workloads.Csr.m
  | Pagerank -> 3.0 *. float_of_int (pagerank_iterations * d.graph.Workloads.Csr.m)
  | Gups n -> 130.0 *. float_of_int n
  | Tpch q ->
      let rows = float_of_int (Olap.Tpch_data.total_rows d.tpch) in
      if List.mem q Olap.Tpch_queries.join_heavy then 12.0 *. rows else 8.0 *. rows
  | Ycsb_batch n -> 600.0 *. float_of_int n
  | Dag (shape, layers) ->
      (* graph costs vary per job seed; the canonical seed-0 instance is a
         representative estimate (generation is O(nodes), graphs are tiny) *)
      Taskgraph.Graph.total_cost_ns
        (Taskgraph.Graph.generate ~shape ~layers ~seed:0 ())

(* a BFS source must have outgoing edges or the job degenerates to nothing *)
let pick_source d rng =
  let g = d.graph in
  let n = g.Workloads.Csr.n in
  let rec try_random attempts =
    if attempts = 0 then
      (* fall back to the first non-isolated vertex *)
      let rec scan v =
        if v >= n - 1 || Workloads.Csr.degree g v > 0 then min v (n - 1)
        else scan (v + 1)
      in
      scan 0
    else
      let v = Engine.Rng.int rng n in
      if Workloads.Csr.degree g v > 0 then v else try_random (attempts - 1)
  in
  try_random 32

let run_gups ctx d rng updates =
  if updates <= 0 then invalid_arg "Job.run: gups updates <= 0";
  for i = 0 to updates - 1 do
    let idx = Engine.Rng.int rng gups_table_words in
    Sched.Ctx.read ctx d.gups_table idx;
    Sched.Ctx.write ctx d.gups_table idx;
    Sched.Ctx.work ctx 2.0;
    if i land 63 = 63 then Sched.Ctx.maybe_yield ctx
  done;
  updates

(* the paper-mix transaction stream (45 read / 55 rmw) from Ycsb.run,
   reduced to a batch that runs inside one serving task *)
let run_ycsb ctx d rng ops =
  if ops <= 0 then invalid_arg "Job.run: ycsb batch <= 0";
  for i = 0 to ops - 1 do
    let key = Engine.Rng.int rng ycsb_records in
    let dice = Engine.Rng.int rng 100 in
    if dice < 45 then ignore (Oltp.Storage.read_record ctx d.ycsb_table key : int)
    else begin
      let v = Oltp.Storage.read_record ctx d.ycsb_table key in
      Oltp.Storage.write_record ctx d.ycsb_table key (v + 1)
    end;
    Oltp.Txn.commit d.txn ctx;
    if i land 63 = 63 then Sched.Ctx.maybe_yield ctx
  done;
  ops

(* chiplets that actually host a scheduler worker — DAG nodes pinned
   anywhere else would silently fall back to the spawner's queue *)
let worker_chiplets ctx =
  let sched = Sched.Ctx.sched ctx in
  let topo = Machine.topology (Sched.Ctx.machine ctx) in
  let hosted =
    List.filter
      (fun ch ->
        List.exists
          (fun core -> Sched.worker_of_core sched core <> None)
          (Topology.cores_of_chiplet topo ch))
      (List.init (Topology.num_chiplets topo) Fun.id)
  in
  match hosted with [] -> None | l -> Some (Array.of_list l)

let run_dag ctx d ~seed ?(rotate = 0) shape layers =
  let g = Taskgraph.Graph.generate ~shape ~layers ~seed () in
  let topo = Machine.topology (Sched.Ctx.machine ctx) in
  let policy =
    if d.cfg.dag_comm_aware then Taskgraph.Mapper.Comm_aware
    else Taskgraph.Mapper.Blind
  in
  let usable =
    match worker_chiplets ctx with
    | Some a when rotate > 0 && Array.length a > 1 ->
        (* replica ordinal: rotate the usable-chiplet preference so
           redundant DAG executions map onto different silicon instead of
           piling their nodes on the same chiplets *)
        let n = Array.length a in
        Some (Array.init n (fun i -> a.((i + rotate) mod n)))
    | u -> u
  in
  let m = Taskgraph.Mapper.map ?usable topo ~policy g in
  let r = Taskgraph.Exec.run ~job_id:seed ctx m g in
  r.Taskgraph.Exec.nodes_run

let run ctx d ~seed kind =
  let rng = Engine.Rng.create seed in
  match kind with
  | Bfs ->
      let source = pick_source d rng in
      let _, edges = Workloads.Bfs.run_in ctx d.graph ~levels:d.bfs_levels ~source in
      edges
  | Pagerank ->
      let _, updates =
        Workloads.Pagerank.run_in ctx d.graph ~ranks:d.pr_ranks ~next:d.pr_next
          ~iterations:pagerank_iterations ()
      in
      updates
  | Gups n -> run_gups ctx d rng n
  | Tpch q ->
      let r = Olap.Tpch_queries.run ctx ~alloc:d.alloc d.tpch q in
      max 1 r.Olap.Tpch_queries.rows_out
  | Ycsb_batch n -> run_ycsb ctx d rng n
  | Dag (shape, layers) -> run_dag ctx d ~seed shape layers

let run_replica ctx d ~seed ~replica kind =
  match kind with
  | Dag (shape, layers) -> run_dag ctx d ~seed ~rotate:replica shape layers
  | _ -> run ctx d ~seed kind
