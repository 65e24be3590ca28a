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
  graph : Workloads.Csr.t option;  (** [None] unless a mix runs BFS or PageRank *)
  bfs_levels : Simmem.region;
  pr_ranks : Simmem.region;
  pr_next : Simmem.region;
  tpch : Olap.Tpch_data.t option;  (** [None] unless a mix runs TPC-H *)
  ycsb_table : Oltp.Storage.table option;  (** [None] unless a mix runs YCSB *)
  txn : Oltp.Txn.t;
  gups_table : Simmem.region;
  alloc : elt_bytes:int -> count:int -> Simmem.region;
  mapper : Taskgraph.Mapper.prepared;
  mutable chiplets_epoch : int;
      (** the scheduler's placement epoch [chiplets] was computed at *)
  mutable chiplets : int array option;
}

let uses_graph = function Bfs | Pagerank -> true | _ -> false
let uses_tpch = function Tpch _ -> true | _ -> false
let uses_ycsb = function Ycsb_batch _ -> true | _ -> false
let ycsb_payload_words = 13

(* Regions are allocated in one fixed order whichever datasets are built,
   and a dataset no mix uses still reserves its regions: every region,
   and every job's scratch allocated later, sits at the address it had
   when every dataset was built, so the machine model sees the same
   layout. *)
let prepare ?share env cfg kinds =
  let alloc ~elt_bytes ~count =
    env.Workloads.Exec_env.alloc_shared ~elt_bytes ~count
  in
  let share = match share with Some d when d.cfg = cfg -> Some d | _ -> None in
  let needs p = List.exists p kinds in
  let graph =
    if needs uses_graph then
      Some
        (match share with
        | Some { graph = Some g; _ } -> Workloads.Csr.with_regions ~alloc g
        | _ ->
            Workloads.Csr.of_kronecker ~weighted:false ~alloc
              (Workloads.Kronecker.generate ~seed:cfg.seed ~scale:cfg.graph_scale
                 ~edge_factor ()))
    else begin
      Workloads.Csr.reserve_kronecker ~alloc ~scale:cfg.graph_scale ~edge_factor;
      None
    end
  in
  let n = 1 lsl cfg.graph_scale in
  let gups_table = alloc ~elt_bytes:8 ~count:gups_table_words in
  let txn = Oltp.Txn.create ~alloc () in
  let ycsb_table =
    if needs uses_ycsb then
      Some
        (Oltp.Storage.create_table ~alloc ~name:"serve-usertable" ~rows:ycsb_records
           ~payload_words:ycsb_payload_words)
    else begin
      Oltp.Storage.reserve_table ~alloc ~rows:ycsb_records ~payload_words:ycsb_payload_words;
      None
    end
  in
  let tpch_seed = cfg.seed + 1 in
  let tpch =
    if needs uses_tpch then
      Some
        (match share with
        | Some { tpch = Some t; _ } -> Olap.Tpch_data.with_regions ~alloc t
        | _ -> Olap.Tpch_data.generate ~alloc ~seed:tpch_seed ~sf:tpch_sf ())
    else begin
      Olap.Tpch_data.reserve ~alloc ~seed:tpch_seed ~sf:tpch_sf ();
      None
    end
  in
  let pr_next = alloc ~elt_bytes:8 ~count:n in
  let pr_ranks = alloc ~elt_bytes:8 ~count:n in
  let bfs_levels = alloc ~elt_bytes:8 ~count:n in
  {
    cfg;
    graph;
    bfs_levels;
    pr_ranks;
    pr_next;
    tpch;
    ycsb_table;
    txn;
    gups_table;
    alloc;
    mapper = Taskgraph.Mapper.prepare (Machine.topology (Workloads.Exec_env.machine env));
    chiplets_epoch = -1;
    chiplets = None;
  }

let csr d = d.graph
let tpch d = d.tpch

let not_prepared kind what =
  invalid_arg
    (Printf.sprintf "Job: %s needs the %s dataset, which no tenant mix uses"
       (kind_name kind) what)

let graph_for d kind =
  match d.graph with Some g -> g | None -> not_prepared kind "graph"

let tpch_for d kind =
  match d.tpch with Some t -> t | None -> not_prepared kind "TPC-H"

let ycsb_for d kind =
  match d.ycsb_table with Some t -> t | None -> not_prepared kind "YCSB"

(* per-item factors calibrated against measured virtual service times on
   the default datasets (charm, 32 workers, cache_scale 16): BFS ~4.6 ns
   per edge, PageRank ~3 ns per edge update, GUPS ~130 ns per RMW, TPC-H
   ~8 ns per stored row, YCSB ~600 ns per transaction *)
let cost_estimate d kind =
  match kind with
  | Bfs -> 4.5 *. float_of_int (graph_for d kind).Workloads.Csr.m
  | Pagerank ->
      3.0 *. float_of_int (pagerank_iterations * (graph_for d kind).Workloads.Csr.m)
  | Gups n -> 130.0 *. float_of_int n
  | Tpch q ->
      let rows = float_of_int (Olap.Tpch_data.total_rows (tpch_for d kind)) in
      if List.mem q Olap.Tpch_queries.join_heavy then 12.0 *. rows else 8.0 *. rows
  | Ycsb_batch n ->
      ignore (ycsb_for d kind : Oltp.Storage.table);
      600.0 *. float_of_int n
  | Dag (shape, layers) ->
      (* graph costs vary per job seed; the canonical seed-0 instance is a
         representative estimate *)
      Taskgraph.Graph.total_cost_ns
        (Taskgraph.Graph.generate ~shape ~layers ~seed:0 ())

(* a BFS source must have outgoing edges or the job degenerates to nothing *)
let pick_source g rng =
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
let run_ycsb ctx d table rng ops =
  if ops <= 0 then invalid_arg "Job.run: ycsb batch <= 0";
  for i = 0 to ops - 1 do
    let key = Engine.Rng.int rng ycsb_records in
    let dice = Engine.Rng.int rng 100 in
    if dice < 45 then ignore (Oltp.Storage.read_record ctx table key : int)
    else begin
      let v = Oltp.Storage.read_record ctx table key in
      Oltp.Storage.write_record ctx table key (v + 1)
    end;
    Oltp.Txn.commit d.txn ctx;
    if i land 63 = 63 then Sched.Ctx.maybe_yield ctx
  done;
  ops

(* chiplets that actually host a scheduler worker — DAG nodes pinned
   anywhere else would silently fall back to the spawner's queue.
   Recomputed only when the scheduler's placement epoch moves. *)
let worker_chiplets d ctx =
  let sched = Sched.Ctx.sched ctx in
  let epoch = Sched.placement_epoch sched in
  if epoch <> d.chiplets_epoch then begin
    let topo = Machine.topology (Sched.Ctx.machine ctx) in
    let cpc = topo.Topology.cores_per_chiplet in
    let hosts ch =
      let first = Topology.first_core_of_chiplet topo ch in
      let rec go core =
        core < first + cpc && (Sched.worker_of_core sched core <> None || go (core + 1))
      in
      go first
    in
    let hosted = List.filter hosts (List.init (Topology.num_chiplets topo) Fun.id) in
    d.chiplets <- (match hosted with [] -> None | l -> Some (Array.of_list l));
    d.chiplets_epoch <- epoch
  end;
  d.chiplets

let run_dag ctx d ~seed ?(rotate = 0) shape layers =
  let g = Taskgraph.Graph.generate ~shape ~layers ~seed () in
  let policy =
    if d.cfg.dag_comm_aware then Taskgraph.Mapper.Comm_aware
    else Taskgraph.Mapper.Blind
  in
  let usable =
    match worker_chiplets d ctx with
    | Some a when rotate > 0 && Array.length a > 1 ->
        (* replica ordinal: rotate the usable-chiplet preference so
           redundant DAG executions map onto different silicon instead of
           piling their nodes on the same chiplets *)
        let n = Array.length a in
        Some (Array.init n (fun i -> a.((i + rotate) mod n)))
    | u -> u
  in
  let m = Taskgraph.Mapper.map_prepared d.mapper ?usable ~policy g in
  let r = Taskgraph.Exec.run ~job_id:seed ctx m g in
  r.Taskgraph.Exec.nodes_run

let run ctx d ~seed kind =
  let rng = Engine.Rng.create seed in
  match kind with
  | Bfs ->
      let g = graph_for d kind in
      let source = pick_source g rng in
      let _, edges = Workloads.Bfs.run_in ctx g ~levels:d.bfs_levels ~source in
      edges
  | Pagerank ->
      let _, updates =
        Workloads.Pagerank.run_in ctx (graph_for d kind) ~ranks:d.pr_ranks ~next:d.pr_next
          ~iterations:pagerank_iterations ()
      in
      updates
  | Gups n -> run_gups ctx d rng n
  | Tpch q ->
      let r = Olap.Tpch_queries.run ctx ~alloc:d.alloc (tpch_for d kind) q in
      max 1 r.Olap.Tpch_queries.rows_out
  | Ycsb_batch n -> run_ycsb ctx d (ycsb_for d kind) rng n
  | Dag (shape, layers) -> run_dag ctx d ~seed shape layers

let run_replica ctx d ~seed ~replica kind =
  match kind with
  | Dag (shape, layers) -> run_dag ctx d ~seed ~rotate:replica shape layers
  | _ -> run ctx d ~seed kind
