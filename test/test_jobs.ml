(* Serving jobs' shared state: the per-kind cost table, datasets built
   only for the kinds the tenant mixes use (with the address layout of a
   full build), host arrays shared between fleet shards, and the
   worker-chiplet set DAG jobs map onto, cached per placement epoch. *)

module Sys_ = Harness.Systems
module Server = Serving.Server
module Session = Serving.Server.Session
module Job = Serving.Job
module Graph = Taskgraph.Graph
module Machine = Chipsim.Machine
module Simmem = Chipsim.Simmem
module Sched = Engine.Sched
module Tpch_data = Olap.Tpch_data

let data_cfg = { Job.default_data_config with Job.graph_scale = 8 }

let dag_kinds =
  List.concat_map
    (fun shape -> List.map (fun layers -> Job.Dag (shape, layers)) [ 1; 6; 64 ])
    Graph.all_shapes

let all_kinds =
  [ Job.Bfs; Job.Pagerank; Job.Gups 4096; Job.Tpch 1; Job.Tpch 9; Job.Ycsb_batch 256 ]
  @ dag_kinds

let instance () = Sys_.make ~cache_scale:16 Sys_.Charm Sys_.Amd_milan ~n_workers:8 ()
let env_of inst = inst.Sys_.env

let config kinds =
  let base = Server.default_config ~seed:3 in
  {
    base with
    Server.tenants =
      [ { (List.hd base.Server.tenants) with Server.mix = List.map (fun k -> (k, 1)) kinds } ];
    data = data_cfg;
  }

let tpch_of d =
  match Job.tpch d with Some t -> t | None -> Alcotest.fail "TPC-H not built"

let csr_of d =
  match Job.csr d with Some g -> g | None -> Alcotest.fail "graph not built"

let columns t =
  List.concat_map (fun tb -> List.map snd (Olap.Table.columns tb))
    [ t.Tpch_data.region; t.nation; t.supplier; t.customer; t.part; t.partsupp; t.orders; t.lineitem ]

let col_base c = (Olap.Column.sim c).Simmem.base

(* -- the cost table ------------------------------------------------------ *)

let test_cost_table () =
  let sess = Session.create (instance ()) (config all_kinds) in
  let d = Job.prepare (env_of (instance ())) data_cfg all_kinds in
  let m = float_of_int (csr_of d).Workloads.Csr.m in
  let rows = float_of_int (Tpch_data.total_rows (tpch_of d)) in
  (* the formula every kind was priced with before the table existed *)
  let direct = function
    | Job.Bfs -> 4.5 *. m
    | Job.Pagerank -> 3.0 *. (2.0 *. m)
    | Job.Gups n -> 130.0 *. float_of_int n
    | Job.Tpch q ->
        if List.mem q Olap.Tpch_queries.join_heavy then 12.0 *. rows else 8.0 *. rows
    | Job.Ycsb_batch n -> 600.0 *. float_of_int n
    | Job.Dag (shape, layers) ->
        Graph.total_cost_ns (Graph.generate ~shape ~layers ~seed:0 ())
  in
  List.iter
    (fun k ->
      Alcotest.(check (float 0.0)) (Job.kind_name k) (direct k) (Session.cost_estimate sess k))
    all_kinds

(* -- datasets built per mix ---------------------------------------------- *)

let test_tpch_only_same_bases () =
  let full = Job.prepare (env_of (instance ())) data_cfg all_kinds in
  let only = Job.prepare (env_of (instance ())) data_cfg [ Job.Tpch 3 ] in
  Alcotest.(check bool) "graph not built" true (Job.csr only = None);
  Alcotest.(check (list int)) "every TPC-H column at the full-mix base"
    (List.map col_base (columns (tpch_of full)))
    (List.map col_base (columns (tpch_of only)))

(* a dataset's reservation allocates exactly the regions its build does,
   size for size (page rounding would hide a few rows off in the bases) *)
let test_reservations_match_builds () =
  let regions build =
    let sizes = ref [] in
    build (fun ~elt_bytes ~count ->
        sizes := (elt_bytes, count) :: !sizes;
        { Simmem.base = 0; length_bytes = elt_bytes * count; elt_bytes; region_policy = Simmem.First_touch });
    List.rev !sizes
  in
  let same name built reserved =
    Alcotest.(check (list (pair int int))) name (regions built) (regions reserved)
  in
  List.iter
    (fun (seed, sf) ->
      same
        (Printf.sprintf "TPC-H seed %d sf %g" seed sf)
        (fun alloc -> ignore (Tpch_data.generate ~alloc ~seed ~sf () : Tpch_data.t))
        (fun alloc -> Tpch_data.reserve ~alloc ~seed ~sf ()))
    [ (8, 0.002); (1234, 0.001); (5, 0.004) ];
  List.iter
    (fun (scale, edge_factor) ->
      same
        (Printf.sprintf "Kronecker scale %d" scale)
        (fun alloc ->
          ignore
            (Workloads.Csr.of_kronecker ~alloc
               (Workloads.Kronecker.generate ~seed:3 ~scale ~edge_factor ())
              : Workloads.Csr.t))
        (fun alloc -> Workloads.Csr.reserve_kronecker ~alloc ~scale ~edge_factor))
    [ (6, 8); (8, 4) ];
  same "YCSB table"
    (fun alloc ->
      ignore (Oltp.Storage.create_table ~alloc ~name:"t" ~rows:100 ~payload_words:13 : Oltp.Storage.table))
    (fun alloc -> Oltp.Storage.reserve_table ~alloc ~rows:100 ~payload_words:13)

let test_unbuilt_graph_size_checked () =
  (* the graph's size bound holds whether or not a mix builds it, as it
     did when every session built the graph *)
  match
    Job.prepare (env_of (instance ())) { data_cfg with Job.graph_scale = 40 } [ Job.Gups 8 ]
  with
  | _ -> Alcotest.fail "graph scale 40 accepted"
  | exception Invalid_argument _ -> ()

let test_shards_share_host_arrays () =
  let d0 = Job.prepare (env_of (instance ())) data_cfg all_kinds in
  let d1 = Job.prepare ~share:d0 (env_of (instance ())) data_cfg all_kinds in
  let g0 = csr_of d0 and g1 = csr_of d1 in
  Alcotest.(check bool) "row pointers shared" true (g0.Workloads.Csr.row_ptr == g1.Workloads.Csr.row_ptr);
  Alcotest.(check bool) "columns shared" true (g0.Workloads.Csr.col == g1.Workloads.Csr.col);
  Alcotest.(check bool) "own regions" true (g0.Workloads.Csr.sim_col != g1.Workloads.Csr.sim_col);
  Alcotest.(check int) "same base" g0.Workloads.Csr.sim_col.Simmem.base g1.Workloads.Csr.sim_col.Simmem.base;
  List.iter2
    (fun c0 c1 ->
      let shared =
        match (c0, c1) with
        | Olap.Column.Ints a, Olap.Column.Ints b -> a.data == b.data
        | Olap.Column.Floats a, Olap.Column.Floats b -> a.data == b.data
        | _ -> false
      in
      Alcotest.(check bool) "column values shared" true shared;
      Alcotest.(check bool) "own region" true (Olap.Column.sim c0 != Olap.Column.sim c1);
      Alcotest.(check int) "same base" (col_base c0) (col_base c1))
    (columns (tpch_of d0)) (columns (tpch_of d1))

let test_share_needs_equal_config () =
  let d0 = Job.prepare (env_of (instance ())) data_cfg [ Job.Bfs ] in
  let other = { data_cfg with Job.seed = data_cfg.Job.seed + 1 } in
  let d1 = Job.prepare ~share:d0 (env_of (instance ())) other [ Job.Bfs ] in
  Alcotest.(check bool) "a different dataset config builds its own graph" false
    ((csr_of d0).Workloads.Csr.col == (csr_of d1).Workloads.Csr.col)

let test_unbuilt_kind_rejected () =
  let sess = Session.create (instance ()) (config [ Job.Tpch 1 ]) in
  List.iter
    (fun kind ->
      match Session.submit sess ~tenant:0 ~job_id:0 ~arrival:0.0 ~kind ~job_seed:1 with
      | _ -> Alcotest.failf "%s submitted without its dataset" (Job.kind_name kind)
      | exception Invalid_argument _ -> ())
    [ Job.Bfs; Job.Pagerank; Job.Ycsb_batch 8 ];
  (* GUPS and DAG jobs need no built dataset *)
  ignore (Session.submit sess ~tenant:0 ~job_id:1 ~arrival:0.0 ~kind:(Job.Gups 8) ~job_seed:1
          : Serving.Admission.decision)

(* -- the worker-chiplet cache -------------------------------------------- *)

(* a bare two-worker scheduler (no placement policy) on cores 0 and 1 of
   a Milan model, both on chiplet 0, recording DAG node placements *)
let bare () =
  let machine = Machine.create (Sys_.topology Sys_.Amd_milan ~cache_scale:16) in
  let sched = Sched.create machine ~n_workers:2 ~placement:(fun w -> w) in
  let tr = Engine.Trace.create () in
  Sched.set_trace sched (Some tr);
  let env =
    {
      Workloads.Exec_env.name = "bare";
      sched;
      alloc_shared = (fun ~elt_bytes ~count -> Machine.alloc machine ~elt_bytes ~count ());
      run =
        (fun main ->
          ignore (Sched.spawn sched ~worker:0 main : Sched.task);
          Sched.run sched);
    }
  in
  (machine, sched, tr, env)

let dag = Job.Dag (Graph.Fanout, 6)

(* the chiplets the next DAG job's nodes were mapped to *)
let mapped_chiplets tr env d ~seed =
  Engine.Trace.clear tr;
  ignore (env.Workloads.Exec_env.run (fun ctx -> ignore (Job.run ctx d ~seed dag : int)) : float);
  List.sort_uniq compare
    (List.filter_map
       (function Engine.Trace.Dag_node { chiplet; _ } -> Some chiplet | _ -> None)
       (Engine.Trace.events tr))

let worker_chiplets machine sched =
  let topo = Machine.topology machine in
  List.sort_uniq compare
    (List.init (Sched.n_workers sched) (fun w ->
         Chipsim.Topology.chiplet_of_core topo (Sched.worker_core sched w)))

let test_chiplets_follow_migration () =
  let machine, sched, tr, env = bare () in
  let d = Job.prepare env data_cfg [ dag ] in
  Alcotest.(check (list int)) "both workers on chiplet 0" [ 0 ] (mapped_chiplets tr env d ~seed:1);
  Sched.migrate sched ~worker:1 ~core:8;
  Alcotest.(check (list int)) "after the migration, chiplets 0 and 1" [ 0; 1 ]
    (mapped_chiplets tr env d ~seed:2);
  Alcotest.(check (list int)) "the workers' chiplets" [ 0; 1 ] (worker_chiplets machine sched)

let test_chiplets_follow_core_offline () =
  let machine, sched, tr, env = bare () in
  let d = Job.prepare env data_cfg [ dag ] in
  Sched.migrate sched ~worker:1 ~core:8;
  Alcotest.(check (list int)) "spread over chiplets 0 and 1" [ 0; 1 ]
    (mapped_chiplets tr env d ~seed:1);
  (* chiplet 1 loses every core: worker 1 moves to a free core elsewhere *)
  let mods = Machine.modifiers machine in
  let epoch = Sched.placement_epoch sched in
  for core = 9 to 15 do
    Chipsim.Modifiers.set_core_online mods core false
  done;
  Chipsim.Modifiers.set_core_online mods 8 false;
  Sched.handle_core_offline sched ~core:8;
  Alcotest.(check bool) "the epoch moved" true (Sched.placement_epoch sched > epoch);
  let now = worker_chiplets machine sched in
  Alcotest.(check bool) "worker 1 left chiplet 1" false (List.mem 1 now);
  Alcotest.(check (list int)) "the next job maps onto the new set" now
    (mapped_chiplets tr env d ~seed:2)

let test_epoch_moves_on_dormant_offline () =
  (* one free core short: the worker cannot migrate and goes dormant in
     place, which still moves the epoch (as does its core's return) *)
  let machine = Machine.create (Sys_.topology Sys_.Amd_milan ~cache_scale:16) in
  let n = Chipsim.Topology.num_cores (Machine.topology machine) in
  let sched = Sched.create machine ~n_workers:n ~placement:(fun w -> w) in
  let mods = Machine.modifiers machine in
  let e0 = Sched.placement_epoch sched in
  Chipsim.Modifiers.set_core_online mods 5 false;
  Sched.handle_core_offline sched ~core:5;
  Alcotest.(check bool) "worker dormant" true (Sched.worker_offlined sched 5);
  let e1 = Sched.placement_epoch sched in
  Alcotest.(check bool) "offline moved the epoch" true (e1 > e0);
  Chipsim.Modifiers.set_core_online mods 5 true;
  Sched.handle_core_online sched ~core:5 ~at:0.0;
  Alcotest.(check bool) "online moved the epoch" true (Sched.placement_epoch sched > e1)

let suite =
  [
    Alcotest.test_case "cost table equals the direct formula" `Quick test_cost_table;
    Alcotest.test_case "TPC-H-only session keeps the bases" `Quick test_tpch_only_same_bases;
    Alcotest.test_case "reservations match builds" `Quick test_reservations_match_builds;
    Alcotest.test_case "unbuilt graph size checked" `Quick test_unbuilt_graph_size_checked;
    Alcotest.test_case "shards share host arrays" `Quick test_shards_share_host_arrays;
    Alcotest.test_case "share needs an equal config" `Quick test_share_needs_equal_config;
    Alcotest.test_case "unbuilt kind rejected at submit" `Quick test_unbuilt_kind_rejected;
    Alcotest.test_case "chiplets follow a migration" `Quick test_chiplets_follow_migration;
    Alcotest.test_case "chiplets follow a core offline" `Quick test_chiplets_follow_core_offline;
    Alcotest.test_case "epoch moves on dormant offline" `Quick test_epoch_moves_on_dormant_offline;
  ]
