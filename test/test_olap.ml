let env sys ~workers =
  let inst = Harness.Systems.make sys Harness.Systems.Amd_milan ~n_workers:workers () in
  inst.Harness.Systems.env

let dataset env_ =
  Olap.Tpch_data.generate
    ~alloc:(fun ~elt_bytes ~count ->
      env_.Workloads.Exec_env.alloc_shared ~elt_bytes ~count)
    ~sf:0.002 ~seed:11 ()

let test_cardinalities () =
  let e = env Harness.Systems.Charm ~workers:4 in
  let d = dataset e in
  Alcotest.(check int) "regions" 5 (Olap.Table.rows d.Olap.Tpch_data.region);
  Alcotest.(check int) "nations" 25 (Olap.Table.rows d.Olap.Tpch_data.nation);
  Alcotest.(check int) "suppliers" 20 (Olap.Table.rows d.Olap.Tpch_data.supplier);
  Alcotest.(check int) "customers" 300 (Olap.Table.rows d.Olap.Tpch_data.customer);
  Alcotest.(check int) "orders" 3000 (Olap.Table.rows d.Olap.Tpch_data.orders);
  let li = Olap.Table.rows d.Olap.Tpch_data.lineitem in
  Alcotest.(check bool) "lineitem fanout in [1,7] per order" true
    (li >= 3000 && li <= 7 * 3000);
  (* partsupp is 4 rows per part *)
  Alcotest.(check int) "partsupp" (4 * Olap.Table.rows d.Olap.Tpch_data.part)
    (Olap.Table.rows d.Olap.Tpch_data.partsupp)

let test_date_encoding () =
  Alcotest.(check int) "1992 epoch" 0 (Olap.Tpch_data.day_of ~year:1992);
  Alcotest.(check int) "1995" (3 * 365) (Olap.Tpch_data.day_of ~year:1995);
  try
    ignore (Olap.Tpch_data.day_of ~year:1980);
    Alcotest.fail "accepted bad year"
  with Invalid_argument _ -> ()

let test_q6_matches_naive () =
  let e = env Harness.Systems.Charm ~workers:4 in
  let d = dataset e in
  let result, _ = Olap.Tpch_queries.execute e d 6 in
  (* naive sequential recomputation *)
  let li = d.Olap.Tpch_data.lineitem in
  let ship = Olap.Table.ints li "l_shipdate" in
  let qty = Olap.Table.floats li "l_quantity" in
  let price = Olap.Table.floats li "l_extendedprice" in
  let disc = Olap.Table.floats li "l_discount" in
  let lo = Olap.Tpch_data.day_of ~year:1994 and hi = Olap.Tpch_data.day_of ~year:1995 in
  let expected = ref 0.0 in
  for r = 0 to Olap.Table.rows li - 1 do
    if
      ship.(r) >= lo && ship.(r) < hi
      && disc.(r) >= 0.05 && disc.(r) <= 0.07
      && qty.(r) < 24.0
    then expected := !expected +. (price.(r) *. disc.(r))
  done;
  Alcotest.(check (float 0.001)) "q6 revenue" !expected result.Olap.Tpch_queries.checksum

let test_q1_group_count () =
  let e = env Harness.Systems.Charm ~workers:4 in
  let d = dataset e in
  let result, _ = Olap.Tpch_queries.execute e d 1 in
  (* 3 return flags x 2 line statuses *)
  Alcotest.(check int) "six groups" 6 result.Olap.Tpch_queries.rows_out

let test_all_queries_run () =
  let e = env Harness.Systems.Charm ~workers:8 in
  let d = dataset e in
  List.iter
    (fun q ->
      let result, makespan = Olap.Tpch_queries.execute e d q in
      if makespan <= 0.0 then Alcotest.failf "q%d zero makespan" q;
      if Float.is_nan result.Olap.Tpch_queries.checksum then
        Alcotest.failf "q%d produced NaN" q)
    Olap.Tpch_queries.query_numbers

let test_checksums_system_independent () =
  let run sys =
    let e = env sys ~workers:8 in
    let d = dataset e in
    List.map
      (fun q -> (fst (Olap.Tpch_queries.execute e d q)).Olap.Tpch_queries.checksum)
      [ 1; 3; 5; 6; 9; 13; 18; 22 ]
  in
  let a = run Harness.Systems.Charm and b = run Harness.Systems.Os_default in
  List.iter2 (fun x y -> Alcotest.(check (float 0.0001)) "equal checksum" x y) a b

(* Every query's output and simulated duration on one machine and
   dataset, recorded from the delta-list [Hash_agg.update] implementation
   and asserted bit for bit: (query, rows_out, checksum bits, makespan
   bits).  The makespan pins the charged bucket traffic as well as the
   sums. *)
let tpch_golden =
  [
    (1, 6, 0x41c059ebe06d7ac9L, 0x4107286e3eab44dbL);
    (2, 1, 0x40855328a9ad8646L, 0x40eafa065e5224f4L);
    (3, 29, 0x414d0d43af5ab7d7L, 0x410395e4283dceb2L);
    (4, 5, 0x4073300000000000L, 0x41015194db18e36aL);
    (5, 1, 0x40f6a0058b71a101L, 0x40fab51460968938L);
    (6, 1, 0x412033db4a7eb9a6L, 0x40eccf945d2271a0L);
    (7, 9, 0x4131445691aca9b4L, 0x40f9df5d5ffbc678L);
    (8, 2, 0x0L, 0x40f5a5f653f070b8L);
    (9, 87, 0x416016c855853f81L, 0x40fea5a66d794b10L);
    (10, 67, 0x415850d257551313L, 0x40eb743988abc520L);
    (11, 62, 0x41a5c8d89db7ba9aL, 0x40e5c70200aa00e0L);
    (12, 2, 0x4054400000000000L, 0x40d46a8ac000e500L);
    (13, 16, 0x40a2f80000000000L, 0x40f20b81786830a0L);
    (14, 1, 0x4034cc6a5f0d8c02L, 0x40c61e8ccccccc80L);
    (15, 20, 0x41358cd3c71d6097L, 0x40d2b31e90ff96c0L);
    (16, 208, 0x4088380000000000L, 0x40e40f2f30abb900L);
    (17, 1, 0x0L, 0x40f695ab61b01dc0L);
    (18, 326, 0x418f3eb7e90f28a9L, 0x41005e6a4ec3c828L);
    (19, 1, 0x412a47b4fc76b827L, 0x40e3d446e138ac00L);
    (20, 18, 0x4032000000000000L, 0x40df85d6c55d2c00L);
    (21, 0, 0x0L, 0x4101683651eb84d8L);
    (22, 0, 0x0L, 0x40e15733bcd35a60L);
  ]

let test_tpch_golden () =
  let e = env Harness.Systems.Charm ~workers:8 in
  let d = dataset e in
  List.iter
    (fun (q, rows, checksum, makespan) ->
      let result, ms = Olap.Tpch_queries.execute e d q in
      let name what = Printf.sprintf "q%d %s" q what in
      Alcotest.(check int) (name "rows_out") rows result.Olap.Tpch_queries.rows_out;
      Alcotest.(check int64) (name "checksum bits") checksum
        (Int64.bits_of_float result.Olap.Tpch_queries.checksum);
      Alcotest.(check int64) (name "makespan bits") makespan (Int64.bits_of_float ms))
    tpch_golden

let test_bad_query_number () =
  let e = env Harness.Systems.Charm ~workers:2 in
  let d = dataset e in
  try
    ignore (Olap.Tpch_queries.execute e d 23);
    Alcotest.fail "accepted query 23"
  with Invalid_argument _ -> ()

let test_table_validation () =
  let e = env Harness.Systems.Charm ~workers:2 in
  let alloc ~elt_bytes ~count = e.Workloads.Exec_env.alloc_shared ~elt_bytes ~count in
  try
    ignore
      (Olap.Table.v ~name:"bad" ~rows:2
         [ ("a", Olap.Column.ints ~alloc [| 1 |]) ]);
    Alcotest.fail "accepted mismatched column"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "cardinalities" `Quick test_cardinalities;
    Alcotest.test_case "date encoding" `Quick test_date_encoding;
    Alcotest.test_case "q6 matches naive scan" `Quick test_q6_matches_naive;
    Alcotest.test_case "q1 group count" `Quick test_q1_group_count;
    Alcotest.test_case "all 22 queries run" `Slow test_all_queries_run;
    Alcotest.test_case "checksums system-independent" `Slow test_checksums_system_independent;
    Alcotest.test_case "tpch results bit-exact" `Slow test_tpch_golden;
    Alcotest.test_case "bad query number" `Quick test_bad_query_number;
    Alcotest.test_case "table validation" `Quick test_table_validation;
  ]
