(* charm_run: run one workload under one runtime system on one simulated
   machine and print throughput plus the chiplet-level access breakdown.

   Examples:
     charm_run -w bfs -s charm -n 64
     charm_run -w tpch -q 3 -s ring -n 8
     charm_run -w ycsb -s distributed-cache -n 32 -m amd --cache-scale 32 *)

open Cmdliner
module Sys_ = Harness.Systems

let workloads =
  [ "bfs"; "pr"; "cc"; "sssp"; "gups"; "graph500"; "streamcluster"; "sgd";
    "tpch"; "ycsb"; "tpcc"; "dag" ]

let run_workload env inst ~workload ~graph_scale ~query ~seed =
  let open Workloads in
  let alloc ~elt_bytes ~count = env.Exec_env.alloc_shared ~elt_bytes ~count in
  (* [-seed] reseeds every input generator; absent, each keeps its
     built-in default so existing runs reproduce unchanged *)
  let seeded default mk = match seed with None -> default | Some s -> mk s in
  let graph ~weighted =
    Csr.of_kronecker ~weighted ~alloc
      (Kronecker.generate ?seed ~scale:graph_scale ~edge_factor:16 ())
  in
  let source g =
    let rec go v = if v >= g.Csr.n - 1 || Csr.degree g v > 0 then v else go (v + 1) in
    go 0
  in
  (match workload with
  | "bfs" ->
      let g = graph ~weighted:false in
      let _, r = Bfs.run env g ~source:(source g) in
      Printf.printf "BFS: %.3e edges/s\n" (Workload_result.throughput_per_s r)
  | "pr" ->
      let g = graph ~weighted:false in
      let _, r = Pagerank.run env g () in
      Printf.printf "PageRank: %.3e edge-updates/s\n" (Workload_result.throughput_per_s r)
  | "cc" ->
      let g = graph ~weighted:false in
      let _, r = Concomp.run env g in
      Printf.printf "CC: %.3e edges/s\n" (Workload_result.throughput_per_s r)
  | "sssp" ->
      let g = graph ~weighted:true in
      let _, r = Sssp.run env g ~source:(source g) in
      Printf.printf "SSSP: %.3e relaxations/s\n" (Workload_result.throughput_per_s r)
  | "gups" ->
      let p = seeded Gups.default_params (fun s -> { Gups.default_params with Gups.seed = s }) in
      let r = Gups.run env p in
      Printf.printf "GUPS: %.4f giga-updates/s\n" (Gups.gups r)
  | "graph500" ->
      let g = graph ~weighted:false in
      let p = { Graph500.default_params with Graph500.scale = graph_scale } in
      let p = seeded p (fun s -> { p with Graph500.seed = s }) in
      let r = Graph500.run env g p in
      Printf.printf "Graph500: %.3e TEPS\n" (Graph500.teps r)
  | "streamcluster" ->
      let p =
        seeded Streamcluster.default_params (fun s ->
            { Streamcluster.default_params with Streamcluster.seed = s })
      in
      let o = Streamcluster.run env p in
      Printf.printf "Streamcluster: %.3e point-center evals/s (cost %.1f, %d centers)\n"
        (Workload_result.throughput_per_s o.Streamcluster.result)
        o.Streamcluster.total_cost o.Streamcluster.centers_opened
  | "sgd" ->
      let data = Dataset.generate ~alloc ?seed ~samples:1024 ~features:1024 () in
      let o = Dimmwitted.run env ~replica:Sgd.Per_node data in
      Format.printf "%a@." Dimmwitted.pp o
  | "tpch" ->
      let data = Olap.Tpch_data.generate ~alloc ?seed ~sf:0.01 () in
      let qs = match query with Some q -> [ q ] | None -> Olap.Tpch_queries.query_numbers in
      List.iter
        (fun q ->
          let r, t = Olap.Tpch_queries.execute env data q in
          Printf.printf "Q%-2d: %8.3f ms  checksum %.6e (%d groups)\n" q (t /. 1e6)
            r.Olap.Tpch_queries.checksum r.Olap.Tpch_queries.rows_out)
        qs
  | "ycsb" ->
      let p = seeded Oltp.Ycsb.default_params (fun s -> { Oltp.Ycsb.default_params with Oltp.Ycsb.seed = s }) in
      let o = Oltp.Ycsb.run env p in
      Printf.printf "YCSB: %.3e commits/s (%d commits)\n" o.Oltp.Ycsb.commits_per_second
        o.Oltp.Ycsb.commits
  | "tpcc" ->
      let p = seeded Oltp.Tpcc.default_params (fun s -> { Oltp.Tpcc.default_params with Oltp.Tpcc.seed = s }) in
      let o = Oltp.Tpcc.run env p in
      Printf.printf "TPC-C: %.3e commits/s (%d new orders)\n"
        o.Oltp.Tpcc.commits_per_second o.Oltp.Tpcc.new_orders
  | "dag" ->
      (* one inference DAG per shape, executed under both mappers so the
         comm-aware advantage is visible from the CLI *)
      let topo = Chipsim.Machine.topology (Exec_env.machine env) in
      let dag_seed = Option.value seed ~default:7 in
      let usable =
        let sched = env.Exec_env.sched in
        let hosted =
          List.filter
            (fun ch ->
              List.exists
                (fun core -> Engine.Sched.worker_of_core sched core <> None)
                (Chipsim.Topology.cores_of_chiplet topo ch))
            (List.init (Chipsim.Topology.num_chiplets topo) Fun.id)
        in
        match hosted with [] -> None | l -> Some (Array.of_list l)
      in
      List.iter
        (fun shape ->
          let g = Taskgraph.Graph.generate ~shape ~layers:6 ~seed:dag_seed () in
          Printf.printf "DAG %-12s (%d nodes, %d edges):" (Taskgraph.Graph.name g)
            (Taskgraph.Graph.num_nodes g) (Taskgraph.Graph.num_edges g);
          List.iter
            (fun policy ->
              let m = Taskgraph.Mapper.map ?usable topo ~policy g in
              let span = ref 0.0 in
              ignore
                (env.Exec_env.run (fun ctx ->
                     span := (Taskgraph.Exec.run ctx m g).Taskgraph.Exec.span_ns)
                  : float);
              Printf.printf "  %s %.1f us (cut %d KiB)"
                (Taskgraph.Mapper.policy_name policy)
                (!span /. 1e3)
                (m.Taskgraph.Mapper.cross_bytes / 1024))
            Taskgraph.Mapper.all_policies;
          print_newline ())
        Taskgraph.Graph.all_shapes
  | other -> Printf.eprintf "unknown workload %s\n" other);
  let report = Sys_.report inst in
  Format.printf "---@.%a@." Engine.Stats.pp report

(* same definition of a simulated event as [bench core]: accesses charged
   through the machine model plus scheduler events (switches, steals,
   migrations) *)
let engine_events machine =
  let open Chipsim in
  let pmu = Machine.pmu machine in
  Machine.accesses machine
  + Pmu.total pmu Pmu.Context_switch
  + Pmu.total pmu Pmu.Task_stolen
  + Pmu.total pmu Pmu.Migration

let main (c : Cli.common) workload graph_scale query seed =
  Cli.run "charm_run" c @@ fun machine ->
  let inst = Cli.instance c machine in
  let trace =
    Option.map
      (fun file ->
        let tr = Engine.Trace.create () in
        (* CHARM wires every layer; baselines still get the scheduler's
           quantum / steal / park / migration timeline *)
        (match inst.Sys_.charm with
        | Some rt -> Charm.Runtime.attach_trace rt tr
        | None -> Engine.Sched.set_trace inst.Sys_.env.Workloads.Exec_env.sched (Some tr));
        (tr, file))
      c.trace
  in
  Printf.printf "system=%s machine=[%s] workers=%d cache-scale=%d\n"
    (Sys_.sys_name c.sys)
    (Format.asprintf "%a" Chipsim.Topology.pp (Chipsim.Machine.topology inst.Sys_.machine))
    c.workers c.cache_scale;
  let t0 = Unix.gettimeofday () in
  run_workload inst.Sys_.env inst ~workload ~graph_scale ~query ~seed;
  let wall = Unix.gettimeofday () -. t0 in
  let events = engine_events inst.Sys_.machine in
  Printf.printf "engine: %d simulated events in %.3fs (%.3g events/s end-to-end)\n"
    events wall
    (float_of_int events /. Float.max 1e-9 wall);
  Option.iter (fun (tr, file) -> Cli.save_trace tr file) trace

let workload_arg =
  Arg.(
    value
    & opt (enum (List.map (fun w -> (w, w)) workloads)) "bfs"
    & info [ "w"; "workload" ] ~doc:"Workload to run.")

let query_arg =
  Arg.(value & opt (some int) None & info [ "q"; "query" ] ~doc:"TPC-H query number.")

let cmd =
  let doc = "run a workload on the simulated chiplet machine under a runtime system" in
  Cmd.v
    (Cmd.info "charm_run" ~doc)
    Term.(
      const main $ Cli.common ~workers:64 $ workload_arg
      $ Cli.graph_scale ~default:13 $ query_arg $ Cli.seed_opt)

let () = exit (Cmd.eval cmd)
