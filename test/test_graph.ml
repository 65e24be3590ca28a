open Workloads

let env ?(workers = 8) () =
  let inst = Harness.Systems.make Harness.Systems.Charm Harness.Systems.Amd_milan ~n_workers:workers () in
  inst.Harness.Systems.env

let small_graph env_ =
  let kron = Kronecker.generate ~scale:8 ~edge_factor:8 () in
  Csr.of_kronecker
    ~alloc:(fun ~elt_bytes ~count -> env_.Exec_env.alloc_shared ~elt_bytes ~count)
    kron

let weighted_graph env_ =
  let kron = Kronecker.generate ~scale:8 ~edge_factor:8 () in
  Csr.of_kronecker ~weighted:true
    ~alloc:(fun ~elt_bytes ~count -> env_.Exec_env.alloc_shared ~elt_bytes ~count)
    kron

let test_kronecker_shape () =
  let k = Kronecker.generate ~scale:10 ~edge_factor:16 () in
  Alcotest.(check int) "vertices" 1024 (Kronecker.num_vertices k);
  Alcotest.(check int) "edges" (16 * 1024) (Kronecker.num_edges k);
  Array.iteri
    (fun i u -> if u = k.Kronecker.dst.(i) then Alcotest.fail "self loop")
    k.Kronecker.src

let test_kronecker_deterministic () =
  let a = Kronecker.generate ~seed:5 ~scale:8 () in
  let b = Kronecker.generate ~seed:5 ~scale:8 () in
  Alcotest.(check (array int)) "same src" a.Kronecker.src b.Kronecker.src

let test_csr_well_formed () =
  let e = env () in
  let g = small_graph e in
  Alcotest.(check int) "row_ptr length" (g.Csr.n + 1) (Array.length g.Csr.row_ptr);
  Alcotest.(check int) "row_ptr total" g.Csr.m g.Csr.row_ptr.(g.Csr.n);
  let mono = ref true in
  for i = 0 to g.Csr.n - 1 do
    if g.Csr.row_ptr.(i) > g.Csr.row_ptr.(i + 1) then mono := false
  done;
  Alcotest.(check bool) "row_ptr monotone" true !mono;
  Array.iter
    (fun v -> if v < 0 || v >= g.Csr.n then Alcotest.fail "col out of range")
    g.Csr.col

let test_bfs_matches_reference () =
  let e = env () in
  let g = small_graph e in
  let levels, result = Bfs.run e g ~source:0 in
  let expected = Bfs.reference g ~source:0 in
  Alcotest.(check (array int)) "levels" expected levels;
  Alcotest.(check bool) "edges counted" true (result.Workload_result.work_items > 0)

let test_sssp_matches_dijkstra () =
  let e = env () in
  let g = weighted_graph e in
  let dist, _ = Sssp.run e g ~source:1 in
  let expected = Sssp.reference g ~source:1 in
  Alcotest.(check (array int)) "distances" expected dist

let test_cc_partition_matches () =
  let e = env () in
  let g = small_graph e in
  let labels, _ = Concomp.run e g in
  let expected = Concomp.reference g in
  (* compare as partitions: same label iff same reference root *)
  let n = g.Csr.n in
  let map = Hashtbl.create 64 in
  let ok = ref true in
  for v = 0 to n - 1 do
    match Hashtbl.find_opt map expected.(v) with
    | None -> Hashtbl.add map expected.(v) labels.(v)
    | Some l -> if l <> labels.(v) then ok := false
  done;
  Alcotest.(check bool) "same partition" true !ok;
  (* label-propagation labels are the min vertex id of the component *)
  Alcotest.(check int) "vertex 0 leads its component" 0 labels.(0)

let test_pagerank_close_to_reference () =
  let e = env () in
  let g = small_graph e in
  let ranks, _ = Pagerank.run e g () in
  let expected = Pagerank.reference g () in
  let max_err = ref 0.0 in
  Array.iteri
    (fun i r -> max_err := Float.max !max_err (abs_float (r -. expected.(i))))
    ranks;
  Alcotest.(check bool) "ranks match" true (!max_err < 1e-9);
  let total = Array.fold_left ( +. ) 0.0 ranks in
  Alcotest.(check bool) "mass conserved-ish" true (total > 0.5 && total <= 1.01)

let test_gups_counts () =
  let e = env ~workers:4 () in
  let params = { Gups.default_params with Gups.table_words = 4096; updates = 4096 } in
  let result = Gups.run e params in
  Alcotest.(check int) "updates" 4096 result.Workload_result.work_items;
  Alcotest.(check bool) "gups positive" true (Gups.gups result > 0.0)

let test_graph500_teps () =
  let e = env () in
  let g = small_graph e in
  let params = { Graph500.default_params with Graph500.roots = 2 } in
  let result = Graph500.run e g params in
  Alcotest.(check bool) "teps positive" true (Graph500.teps result > 0.0)

let test_deterministic_across_systems () =
  (* correctness must not depend on the runtime system *)
  let run sys =
    let inst = Harness.Systems.make sys Harness.Systems.Amd_milan ~n_workers:8 () in
    let e = inst.Harness.Systems.env in
    let g = small_graph e in
    fst (Bfs.run e g ~source:0)
  in
  Alcotest.(check (array int)) "charm = ring" (run Harness.Systems.Charm)
    (run Harness.Systems.Ring)

let prop_bfs_random_graphs =
  QCheck.Test.make ~name:"parallel BFS equals sequential reference" ~count:15
    QCheck.(pair (int_range 4 7) (int_range 1 42))
    (fun (scale, seed) ->
      let e = env ~workers:4 () in
      let kron = Kronecker.generate ~seed ~scale ~edge_factor:4 () in
      let g =
        Csr.of_kronecker
          ~alloc:(fun ~elt_bytes ~count -> e.Exec_env.alloc_shared ~elt_bytes ~count)
          kron
      in
      let levels, _ = Bfs.run e g ~source:0 in
      levels = Bfs.reference g ~source:0)

let test_kronecker_size_bound () =
  (* scale 40 used to die with Out_of_memory instead of a one-line error *)
  Alcotest.(check bool) "bound admits the benchmarks' scale 16" true
    (2 * 16 * (1 lsl 16) <= Kronecker.max_edge_entries);
  List.iter
    (fun scale ->
      match Kronecker.generate ~scale () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "scale %d accepted" scale)
    [ 22; 40; 62 ]

let suite =
  [
    Alcotest.test_case "kronecker shape" `Quick test_kronecker_shape;
    Alcotest.test_case "kronecker deterministic" `Quick test_kronecker_deterministic;
    Alcotest.test_case "kronecker size bound" `Quick test_kronecker_size_bound;
    Alcotest.test_case "csr well-formed" `Quick test_csr_well_formed;
    Alcotest.test_case "bfs matches reference" `Quick test_bfs_matches_reference;
    Alcotest.test_case "sssp matches dijkstra" `Quick test_sssp_matches_dijkstra;
    Alcotest.test_case "cc matches union-find" `Quick test_cc_partition_matches;
    Alcotest.test_case "pagerank matches reference" `Quick test_pagerank_close_to_reference;
    Alcotest.test_case "gups counts updates" `Quick test_gups_counts;
    Alcotest.test_case "graph500 teps" `Quick test_graph500_teps;
    Alcotest.test_case "deterministic across systems" `Quick test_deterministic_across_systems;
    QCheck_alcotest.to_alcotest prop_bfs_random_graphs;
  ]
