type t = {
  sf : float;
  region : Table.t;
  nation : Table.t;
  supplier : Table.t;
  customer : Table.t;
  part : Table.t;
  partsupp : Table.t;
  orders : Table.t;
  lineitem : Table.t;
}

let num_segments = 5
let num_priorities = 5
let num_shipmodes = 7
let num_types = 150
let num_brands = 25
let num_containers = 40
let num_return_flags = 3
let days_total = 2556

let day_of ~year =
  if year < 1992 || year > 1999 then invalid_arg "Tpch_data.day_of: year out of range";
  (year - 1992) * 365  (* leap days ignored; predicates only need ordering *)

(* supplier, customer, part, partsupp and orders rows at scale [sf] *)
let dimension_rows sf =
  let scale base = max 1 (int_of_float (float_of_int base *. sf)) in
  let n_part = scale 200_000 in
  (scale 10_000, scale 150_000, n_part, 4 * n_part, scale 1_500_000)

let generate ~alloc ?(seed = 1234) ~sf () =
  if sf <= 0.0 then invalid_arg "Tpch_data.generate: sf must be positive";
  let rng = Engine.Rng.create seed in
  let n_supplier, n_customer, n_part, n_partsupp, n_orders = dimension_rows sf in
  let ri n = Engine.Rng.int rng n in
  let rf bound = Engine.Rng.float rng bound in

  (* region / nation: fixed tiny dimension tables *)
  let region =
    Table.v ~name:"region" ~rows:5
      [
        ("r_regionkey", Column.ints ~alloc (Array.init 5 Fun.id));
        ("r_name", Column.ints ~alloc (Array.init 5 Fun.id));
      ]
  in
  let nation_region = Array.init 25 (fun i -> i mod 5) in
  let nation =
    Table.v ~name:"nation" ~rows:25
      [
        ("n_nationkey", Column.ints ~alloc (Array.init 25 Fun.id));
        ("n_regionkey", Column.ints ~alloc nation_region);
        ("n_name", Column.ints ~alloc (Array.init 25 Fun.id));
      ]
  in

  let supplier =
    Table.v ~name:"supplier" ~rows:n_supplier
      [
        ("s_suppkey", Column.ints ~alloc (Array.init n_supplier Fun.id));
        ("s_nationkey", Column.ints ~alloc (Array.init n_supplier (fun _ -> ri 25)));
        ("s_acctbal", Column.floats ~alloc (Array.init n_supplier (fun _ -> rf 11_000.0 -. 1_000.0)));
      ]
  in

  let customer =
    Table.v ~name:"customer" ~rows:n_customer
      [
        ("c_custkey", Column.ints ~alloc (Array.init n_customer Fun.id));
        ("c_nationkey", Column.ints ~alloc (Array.init n_customer (fun _ -> ri 25)));
        ("c_mktsegment", Column.ints ~alloc (Array.init n_customer (fun _ -> ri num_segments)));
        ("c_acctbal", Column.floats ~alloc (Array.init n_customer (fun _ -> rf 11_000.0 -. 1_000.0)));
      ]
  in

  let part =
    Table.v ~name:"part" ~rows:n_part
      [
        ("p_partkey", Column.ints ~alloc (Array.init n_part Fun.id));
        ("p_type", Column.ints ~alloc (Array.init n_part (fun _ -> ri num_types)));
        ("p_size", Column.ints ~alloc (Array.init n_part (fun _ -> 1 + ri 50)));
        ("p_brand", Column.ints ~alloc (Array.init n_part (fun _ -> ri num_brands)));
        ("p_container", Column.ints ~alloc (Array.init n_part (fun _ -> ri num_containers)));
        ("p_retailprice", Column.floats ~alloc (Array.init n_part (fun _ -> 900.0 +. rf 1_200.0)));
      ]
  in

  let ps_part = Array.init n_partsupp (fun i -> i / 4) in
  let partsupp =
    Table.v ~name:"partsupp" ~rows:n_partsupp
      [
        ("ps_partkey", Column.ints ~alloc ps_part);
        ("ps_suppkey", Column.ints ~alloc (Array.init n_partsupp (fun _ -> ri n_supplier)));
        ("ps_supplycost", Column.floats ~alloc (Array.init n_partsupp (fun _ -> 1.0 +. rf 1_000.0)));
        ("ps_availqty", Column.ints ~alloc (Array.init n_partsupp (fun _ -> 1 + ri 9_999)));
      ]
  in

  let o_custkey = Array.init n_orders (fun _ -> ri n_customer) in
  let o_orderdate = Array.init n_orders (fun _ -> ri days_total) in
  let orders =
    Table.v ~name:"orders" ~rows:n_orders
      [
        ("o_orderkey", Column.ints ~alloc (Array.init n_orders Fun.id));
        ("o_custkey", Column.ints ~alloc o_custkey);
        ("o_orderdate", Column.ints ~alloc o_orderdate);
        ("o_orderpriority", Column.ints ~alloc (Array.init n_orders (fun _ -> ri num_priorities)));
        ("o_shippriority", Column.ints ~alloc (Array.make n_orders 0));
        ("o_totalprice", Column.floats ~alloc (Array.init n_orders (fun _ -> 1_000.0 +. rf 400_000.0)));
        ("o_orderstatus", Column.ints ~alloc (Array.init n_orders (fun _ -> ri 3)));
      ]
  in

  (* lineitem: 1..7 lines per order (avg ~4) *)
  let lines = ref [] in
  let n_lineitem = ref 0 in
  for o = 0 to n_orders - 1 do
    let k = 1 + ri 7 in
    for l = 0 to k - 1 do
      lines := (o, l) :: !lines;
      incr n_lineitem
    done
  done;
  let n_li = !n_lineitem in
  let order_of = Array.make n_li 0 and line_no = Array.make n_li 0 in
  List.iteri
    (fun i (o, l) ->
      order_of.(i) <- o;
      line_no.(i) <- l)
    (List.rev !lines);
  let l_quantity = Array.init n_li (fun _ -> 1.0 +. float_of_int (ri 50)) in
  let l_extendedprice = Array.init n_li (fun _ -> 900.0 +. rf 100_000.0) in
  let l_discount = Array.init n_li (fun _ -> float_of_int (ri 11) /. 100.0) in
  let l_tax = Array.init n_li (fun _ -> float_of_int (ri 9) /. 100.0) in
  let l_shipdate = Array.init n_li (fun i -> min (days_total - 1) (o_orderdate.(order_of.(i)) + 1 + ri 121)) in
  let l_commitdate = Array.init n_li (fun i -> min (days_total - 1) (o_orderdate.(order_of.(i)) + 30 + ri 61)) in
  let l_receiptdate = Array.init n_li (fun i -> min (days_total - 1) (l_shipdate.(i) + 1 + ri 30)) in
  let lineitem =
    Table.v ~name:"lineitem" ~rows:n_li
      [
        ("l_orderkey", Column.ints ~alloc order_of);
        ("l_linenumber", Column.ints ~alloc line_no);
        ("l_partkey", Column.ints ~alloc (Array.init n_li (fun _ -> ri n_part)));
        ("l_suppkey", Column.ints ~alloc (Array.init n_li (fun _ -> ri n_supplier)));
        ("l_quantity", Column.floats ~alloc l_quantity);
        ("l_extendedprice", Column.floats ~alloc l_extendedprice);
        ("l_discount", Column.floats ~alloc l_discount);
        ("l_tax", Column.floats ~alloc l_tax);
        ("l_returnflag", Column.ints ~alloc (Array.init n_li (fun _ -> ri num_return_flags)));
        ("l_linestatus", Column.ints ~alloc (Array.init n_li (fun _ -> ri 2)));
        ("l_shipdate", Column.ints ~alloc l_shipdate);
        ("l_commitdate", Column.ints ~alloc l_commitdate);
        ("l_receiptdate", Column.ints ~alloc l_receiptdate);
        ("l_shipmode", Column.ints ~alloc (Array.init n_li (fun _ -> ri num_shipmodes)));
        ("l_shipinstruct", Column.ints ~alloc (Array.init n_li (fun _ -> ri 4)));
      ]
  in
  { sf; region; nation; supplier; customer; part; partsupp; orders; lineitem }

let tables t =
  [ t.region; t.nation; t.supplier; t.customer; t.part; t.partsupp; t.orders; t.lineitem ]

let with_regions ~alloc t =
  let tables = Array.of_list (tables t) in
  let fresh = Array.map (fun tb -> Array.of_list (List.map snd (Table.columns tb))) tables in
  (* reallocate in the originals' allocation order: one bump allocator
     handed them out, so that is ascending base order *)
  let slots =
    Array.concat
      (Array.to_list
         (Array.mapi (fun ti cols -> Array.mapi (fun ci c -> (ti, ci, c)) cols) fresh))
  in
  let base (_, _, c) = (Column.sim c).Chipsim.Simmem.base in
  Array.sort (fun a b -> Int.compare (base a) (base b)) slots;
  Array.iter (fun (ti, ci, c) -> fresh.(ti).(ci) <- Column.with_region ~alloc c) slots;
  let rebuild ti =
    let tb = tables.(ti) in
    Table.v ~name:(Table.name tb) ~rows:(Table.rows tb)
      (List.mapi (fun ci (name, _) -> (name, fresh.(ti).(ci))) (Table.columns tb))
  in
  {
    sf = t.sf;
    region = rebuild 0;
    nation = rebuild 1;
    supplier = rebuild 2;
    customer = rebuild 3;
    part = rebuild 4;
    partsupp = rebuild 5;
    orders = rebuild 6;
    lineitem = rebuild 7;
  }

(* [generate]'s lineitem count without generating: every column value
   before the lineitem loop is one RNG step (2 per supplier, 3 per
   customer, 5 per part, 3 per partsupp and 5 per order row), then each
   order draws its 1..7 lines *)
let lineitem_rows ~seed ~sf =
  let rng = Engine.Rng.create seed in
  let n_supplier, n_customer, n_part, n_partsupp, n_orders = dimension_rows sf in
  let skip =
    (2 * n_supplier) + (3 * n_customer) + (5 * n_part) + (3 * n_partsupp) + (5 * n_orders)
  in
  for _ = 1 to skip do
    ignore (Engine.Rng.bool rng : bool)
  done;
  let n = ref 0 in
  for _ = 1 to n_orders do
    n := !n + 1 + Engine.Rng.int rng 7
  done;
  !n

let reserve ~alloc ?(seed = 1234) ~sf () =
  if sf <= 0.0 then invalid_arg "Tpch_data.reserve: sf must be positive";
  let n_supplier, n_customer, n_part, n_partsupp, n_orders = dimension_rows sf in
  (* (rows, columns) per table in [generate]'s order; within a table all
     regions have one size, so their order does not matter here *)
  List.iter
    (fun (rows, cols) ->
      for _ = 1 to cols do
        ignore (alloc ~elt_bytes:8 ~count:(max 1 rows) : Chipsim.Simmem.region)
      done)
    [
      (5, 2);
      (25, 3);
      (n_supplier, 3);
      (n_customer, 4);
      (n_part, 6);
      (n_partsupp, 4);
      (n_orders, 7);
      (lineitem_rows ~seed ~sf, 15);
    ]

let total_rows t = List.fold_left (fun acc tb -> acc + Table.rows tb) 0 (tables t)
