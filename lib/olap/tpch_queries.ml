module Sched = Engine.Sched
module D = Tpch_data

type result = { query : int; checksum : float; rows_out : int }

let query_numbers = List.init 22 (fun i -> i + 1)
let join_heavy = [ 3; 4; 5; 7; 9; 10; 21 ]

(* Q1: pricing summary report — pure scan + tiny group-by. *)
let q1 ctx ~alloc data =
  let li = data.D.lineitem in
  let shipdate = Table.ints li "l_shipdate" in
  let qty = Table.floats li "l_quantity" in
  let price = Table.floats li "l_extendedprice" in
  let disc = Table.floats li "l_discount" in
  let tax = Table.floats li "l_tax" in
  let rf = Table.ints li "l_returnflag" in
  let ls = Table.ints li "l_linestatus" in
  let cutoff = D.days_total - 90 in
  let agg = Exec.Hash_agg.create ~alloc ~expected:8 ~width:5 in
  Exec.parallel_scan ctx li
    ~columns:
      [
        "l_shipdate"; "l_quantity"; "l_extendedprice"; "l_discount"; "l_tax";
        "l_returnflag"; "l_linestatus";
      ]
    (fun ctx' row ->
      if shipdate.(row) <= cutoff then begin
        let key = (rf.(row) * 2) + ls.(row) in
        let dp = price.(row) *. (1.0 -. disc.(row)) in
        let a = Exec.Hash_agg.row ctx' agg ~key in
        a.(0) <- a.(0) +. qty.(row);
        a.(1) <- a.(1) +. price.(row);
        a.(2) <- a.(2) +. dp;
        a.(3) <- a.(3) +. (dp *. (1.0 +. tax.(row)));
        a.(4) <- a.(4) +. 1.0
      end);
  let sum = Exec.Hash_agg.fold agg (fun _k acc s -> s +. acc.(2)) 0.0 in
  { query = 1; checksum = sum; rows_out = Exec.Hash_agg.groups agg }

(* Q2: minimum-cost supplier in a region for mid-size parts. *)
let q2 ctx ~alloc data =
  let target_region = 2 in
  let supplier = data.D.supplier and nation = data.D.nation in
  let s_nation = Table.ints supplier "s_nationkey" in
  let n_region = Table.ints nation "n_regionkey" in
  let region_suppliers = Exec.Hash_join.create ~alloc ~expected:(Table.rows supplier) in
  Exec.parallel_scan ctx supplier ~columns:[ "s_suppkey"; "s_nationkey" ]
    (fun ctx' s ->
      if n_region.(s_nation.(s)) = target_region then
        Exec.Hash_join.insert ctx' region_suppliers ~key:s ~payload:s);
  let part = data.D.part in
  let p_size = Table.ints part "p_size" and p_type = Table.ints part "p_type" in
  let wanted_parts = Exec.Hash_join.create ~alloc ~expected:(Table.rows part / 10) in
  Exec.parallel_scan ctx part ~columns:[ "p_partkey"; "p_size"; "p_type" ]
    (fun ctx' p ->
      if p_size.(p) = 15 && p_type.(p) mod 5 = 0 then
        Exec.Hash_join.insert ctx' wanted_parts ~key:p ~payload:p);
  let ps = data.D.partsupp in
  let ps_part = Table.ints ps "ps_partkey" in
  let ps_supp = Table.ints ps "ps_suppkey" in
  let ps_cost = Table.floats ps "ps_supplycost" in
  let min_cost = Exec.Hash_agg.create ~alloc ~expected:64 ~width:2 in
  Exec.parallel_scan ctx ps ~columns:[ "ps_partkey"; "ps_suppkey"; "ps_supplycost" ]
    (fun ctx' r ->
      if
        Exec.Hash_join.mem ctx' wanted_parts ~key:ps_part.(r)
        && Exec.Hash_join.mem ctx' region_suppliers ~key:ps_supp.(r)
      then begin
        (* slot 0 keeps the running minimum; slot 1 counts rows, so a
           zero count marks the group's first row *)
        let a = Exec.Hash_agg.row ctx' min_cost ~key:ps_part.(r) in
        if a.(1) = 0.0 then a.(0) <- a.(0) +. ps_cost.(r)
        else if ps_cost.(r) < a.(0) then a.(0) <- ps_cost.(r);
        a.(1) <- a.(1) +. 1.0
      end);
  Exec.charge_sort ctx ~rows:(Exec.Hash_agg.groups min_cost);
  let sum = Exec.Hash_agg.fold min_cost (fun _ acc s -> s +. acc.(0)) 0.0 in
  { query = 2; checksum = sum; rows_out = Exec.Hash_agg.groups min_cost }

(* Q3: shipping-priority revenue — the canonical 3-way hash join. *)
let q3 ctx ~alloc data =
  let segment = 1 in
  let cutoff = D.day_of ~year:1995 + 74 in
  let customer = data.D.customer in
  let c_seg = Table.ints customer "c_mktsegment" in
  let cust = Exec.Hash_join.create ~alloc ~expected:(Table.rows customer / D.num_segments) in
  Exec.parallel_scan ctx customer ~columns:[ "c_custkey"; "c_mktsegment" ]
    (fun ctx' c ->
      if c_seg.(c) = segment then Exec.Hash_join.insert ctx' cust ~key:c ~payload:c);
  let orders = data.D.orders in
  let o_cust = Table.ints orders "o_custkey" in
  let o_date = Table.ints orders "o_orderdate" in
  let ord = Exec.Hash_join.create ~alloc ~expected:(Table.rows orders / 4) in
  Exec.parallel_scan ctx orders ~columns:[ "o_orderkey"; "o_custkey"; "o_orderdate" ]
    (fun ctx' o ->
      if o_date.(o) < cutoff && Exec.Hash_join.mem ctx' cust ~key:o_cust.(o) then
        Exec.Hash_join.insert ctx' ord ~key:o ~payload:o);
  let li = data.D.lineitem in
  let l_order = Table.ints li "l_orderkey" in
  let l_ship = Table.ints li "l_shipdate" in
  let price = Table.floats li "l_extendedprice" in
  let disc = Table.floats li "l_discount" in
  let revenue = Exec.Hash_agg.create ~alloc ~expected:1024 ~width:1 in
  Exec.parallel_scan ctx li
    ~columns:[ "l_orderkey"; "l_shipdate"; "l_extendedprice"; "l_discount" ]
    (fun ctx' r ->
      if l_ship.(r) > cutoff && Exec.Hash_join.mem ctx' ord ~key:l_order.(r) then
        let a = Exec.Hash_agg.row ctx' revenue ~key:l_order.(r) in
        a.(0) <- a.(0) +. (price.(r) *. (1.0 -. disc.(r))));
  Exec.charge_sort ctx ~rows:(Exec.Hash_agg.groups revenue);
  let sum = Exec.Hash_agg.fold revenue (fun _ acc s -> s +. acc.(0)) 0.0 in
  { query = 3; checksum = sum; rows_out = Exec.Hash_agg.groups revenue }

(* Q4: order-priority checking — semi-join of orders against late lines. *)
let q4 ctx ~alloc data =
  let lo = D.day_of ~year:1993 + 180 and hi = D.day_of ~year:1993 + 270 in
  let li = data.D.lineitem in
  let l_order = Table.ints li "l_orderkey" in
  let l_commit = Table.ints li "l_commitdate" in
  let l_receipt = Table.ints li "l_receiptdate" in
  let late = Exec.Hash_join.create ~alloc ~expected:(Table.rows li / 2) in
  Exec.parallel_scan ctx li ~columns:[ "l_orderkey"; "l_commitdate"; "l_receiptdate" ]
    (fun ctx' r ->
      if l_commit.(r) < l_receipt.(r) && not (Exec.Hash_join.mem ctx' late ~key:l_order.(r))
      then Exec.Hash_join.insert ctx' late ~key:l_order.(r) ~payload:r);
  let orders = data.D.orders in
  let o_date = Table.ints orders "o_orderdate" in
  let o_prio = Table.ints orders "o_orderpriority" in
  let counts = Exec.Hash_agg.create ~alloc ~expected:D.num_priorities ~width:1 in
  Exec.parallel_scan ctx orders ~columns:[ "o_orderkey"; "o_orderdate"; "o_orderpriority" ]
    (fun ctx' o ->
      if o_date.(o) >= lo && o_date.(o) < hi && Exec.Hash_join.mem ctx' late ~key:o
      then begin
        let a = Exec.Hash_agg.row ctx' counts ~key:o_prio.(o) in
        a.(0) <- a.(0) +. 1.0
      end);
  let sum = Exec.Hash_agg.fold counts (fun k acc s -> s +. (float_of_int (k + 1) *. acc.(0))) 0.0 in
  { query = 4; checksum = sum; rows_out = Exec.Hash_agg.groups counts }

(* Q5: local-supplier volume — 6-way join, revenue per nation. *)
let q5 ctx ~alloc data =
  let target_region = 1 in
  let year_lo = D.day_of ~year:1994 and year_hi = D.day_of ~year:1995 in
  let nation = data.D.nation in
  let n_region = Table.ints nation "n_regionkey" in
  let supplier = data.D.supplier in
  let s_nation = Table.ints supplier "s_nationkey" in
  let supp_nation = Exec.Hash_join.create ~alloc ~expected:(Table.rows supplier) in
  Exec.parallel_scan ctx supplier ~columns:[ "s_suppkey"; "s_nationkey" ]
    (fun ctx' s ->
      if n_region.(s_nation.(s)) = target_region then
        Exec.Hash_join.insert ctx' supp_nation ~key:s ~payload:s_nation.(s));
  let customer = data.D.customer in
  let c_nation = Table.ints customer "c_nationkey" in
  let cust_nation = Exec.Hash_join.create ~alloc ~expected:(Table.rows customer) in
  Exec.parallel_scan ctx customer ~columns:[ "c_custkey"; "c_nationkey" ]
    (fun ctx' c ->
      if n_region.(c_nation.(c)) = target_region then
        Exec.Hash_join.insert ctx' cust_nation ~key:c ~payload:c_nation.(c));
  let orders = data.D.orders in
  let o_cust = Table.ints orders "o_custkey" in
  let o_date = Table.ints orders "o_orderdate" in
  let ord_nation = Exec.Hash_join.create ~alloc ~expected:(Table.rows orders / 5) in
  Exec.parallel_scan ctx orders ~columns:[ "o_orderkey"; "o_custkey"; "o_orderdate" ]
    (fun ctx' o ->
      if o_date.(o) >= year_lo && o_date.(o) < year_hi then
        Exec.Hash_join.probe_iter ctx' cust_nation ~key:o_cust.(o) (fun nat ->
            Exec.Hash_join.insert ctx' ord_nation ~key:o ~payload:nat));
  let li = data.D.lineitem in
  let l_order = Table.ints li "l_orderkey" in
  let l_supp = Table.ints li "l_suppkey" in
  let price = Table.floats li "l_extendedprice" in
  let disc = Table.floats li "l_discount" in
  let revenue = Exec.Hash_agg.create ~alloc ~expected:25 ~width:1 in
  Exec.parallel_scan ctx li
    ~columns:[ "l_orderkey"; "l_suppkey"; "l_extendedprice"; "l_discount" ]
    (fun ctx' r ->
      Exec.Hash_join.probe_iter ctx' ord_nation ~key:l_order.(r) (fun c_nat ->
          Exec.Hash_join.probe_iter ctx' supp_nation ~key:l_supp.(r) (fun s_nat ->
              if c_nat = s_nat then begin
                let a = Exec.Hash_agg.row ctx' revenue ~key:s_nat in
                a.(0) <- a.(0) +. (price.(r) *. (1.0 -. disc.(r)))
              end)));
  let sum = Exec.Hash_agg.fold revenue (fun _ acc s -> s +. acc.(0)) 0.0 in
  { query = 5; checksum = sum; rows_out = Exec.Hash_agg.groups revenue }

(* Q6: forecasting revenue change — pure scan with selective predicate. *)
let q6 ctx ~alloc:_ data =
  let li = data.D.lineitem in
  let ship = Table.ints li "l_shipdate" in
  let qty = Table.floats li "l_quantity" in
  let price = Table.floats li "l_extendedprice" in
  let disc = Table.floats li "l_discount" in
  let lo = D.day_of ~year:1994 and hi = D.day_of ~year:1995 in
  (* running sums that scan callbacks update live in one-slot float
     arrays: a captured [float ref] would box every new sum *)
  let revenue = [| 0.0 |] in
  Exec.parallel_scan ctx li
    ~columns:[ "l_shipdate"; "l_quantity"; "l_extendedprice"; "l_discount" ]
    (fun _ctx' r ->
      if
        ship.(r) >= lo && ship.(r) < hi
        && disc.(r) >= 0.05 && disc.(r) <= 0.07
        && qty.(r) < 24.0
      then revenue.(0) <- revenue.(0) +. (price.(r) *. disc.(r)));
  { query = 6; checksum = revenue.(0); rows_out = 1 }

(* Q7: volume shipping between two nations, by year. *)
let q7 ctx ~alloc data =
  let nat_a = 3 and nat_b = 7 in
  let supplier = data.D.supplier in
  let s_nation = Table.ints supplier "s_nationkey" in
  let supp = Exec.Hash_join.create ~alloc ~expected:(Table.rows supplier / 12) in
  Exec.parallel_scan ctx supplier ~columns:[ "s_suppkey"; "s_nationkey" ]
    (fun ctx' s ->
      if s_nation.(s) = nat_a || s_nation.(s) = nat_b then
        Exec.Hash_join.insert ctx' supp ~key:s ~payload:s_nation.(s));
  let customer = data.D.customer in
  let c_nation = Table.ints customer "c_nationkey" in
  let cust = Exec.Hash_join.create ~alloc ~expected:(Table.rows customer / 12) in
  Exec.parallel_scan ctx customer ~columns:[ "c_custkey"; "c_nationkey" ]
    (fun ctx' c ->
      if c_nation.(c) = nat_a || c_nation.(c) = nat_b then
        Exec.Hash_join.insert ctx' cust ~key:c ~payload:c_nation.(c));
  let orders = data.D.orders in
  let o_cust = Table.ints orders "o_custkey" in
  let ord = Exec.Hash_join.create ~alloc ~expected:(Table.rows orders / 12) in
  Exec.parallel_scan ctx orders ~columns:[ "o_orderkey"; "o_custkey" ]
    (fun ctx' o ->
      Exec.Hash_join.probe_iter ctx' cust ~key:o_cust.(o) (fun nat ->
          Exec.Hash_join.insert ctx' ord ~key:o ~payload:nat));
  let li = data.D.lineitem in
  let l_order = Table.ints li "l_orderkey" in
  let l_supp = Table.ints li "l_suppkey" in
  let l_ship = Table.ints li "l_shipdate" in
  let price = Table.floats li "l_extendedprice" in
  let disc = Table.floats li "l_discount" in
  let lo = D.day_of ~year:1995 in
  let volume = Exec.Hash_agg.create ~alloc ~expected:8 ~width:1 in
  Exec.parallel_scan ctx li
    ~columns:[ "l_orderkey"; "l_suppkey"; "l_shipdate"; "l_extendedprice"; "l_discount" ]
    (fun ctx' r ->
      if l_ship.(r) >= lo then
        Exec.Hash_join.probe_iter ctx' ord ~key:l_order.(r) (fun c_nat ->
            Exec.Hash_join.probe_iter ctx' supp ~key:l_supp.(r) (fun s_nat ->
                if (c_nat = nat_a && s_nat = nat_b) || (c_nat = nat_b && s_nat = nat_a)
                then begin
                  let year = l_ship.(r) / 365 in
                  let a = Exec.Hash_agg.row ctx' volume ~key:((s_nat * 100) + year) in
                  a.(0) <- a.(0) +. (price.(r) *. (1.0 -. disc.(r)))
                end)));
  let sum = Exec.Hash_agg.fold volume (fun _ acc s -> s +. acc.(0)) 0.0 in
  { query = 7; checksum = sum; rows_out = Exec.Hash_agg.groups volume }

(* Q8: national market share within a region, by year. *)
let q8 ctx ~alloc data =
  let target_nation = 5 and target_region = 1 and target_type = 42 in
  let nation = data.D.nation in
  let n_region = Table.ints nation "n_regionkey" in
  let part = data.D.part in
  let p_type = Table.ints part "p_type" in
  let parts = Exec.Hash_join.create ~alloc ~expected:(Table.rows part / D.num_types) in
  Exec.parallel_scan ctx part ~columns:[ "p_partkey"; "p_type" ]
    (fun ctx' p ->
      if p_type.(p) = target_type then Exec.Hash_join.insert ctx' parts ~key:p ~payload:p);
  let customer = data.D.customer in
  let c_nation = Table.ints customer "c_nationkey" in
  let cust = Exec.Hash_join.create ~alloc ~expected:(Table.rows customer / 5) in
  Exec.parallel_scan ctx customer ~columns:[ "c_custkey"; "c_nationkey" ]
    (fun ctx' c ->
      if n_region.(c_nation.(c)) = target_region then
        Exec.Hash_join.insert ctx' cust ~key:c ~payload:c);
  let orders = data.D.orders in
  let o_cust = Table.ints orders "o_custkey" in
  let o_date = Table.ints orders "o_orderdate" in
  let ord = Exec.Hash_join.create ~alloc ~expected:(Table.rows orders / 5) in
  Exec.parallel_scan ctx orders ~columns:[ "o_orderkey"; "o_custkey"; "o_orderdate" ]
    (fun ctx' o ->
      if
        o_date.(o) >= D.day_of ~year:1995
        && o_date.(o) < D.day_of ~year:1997
        && Exec.Hash_join.mem ctx' cust ~key:o_cust.(o)
      then Exec.Hash_join.insert ctx' ord ~key:o ~payload:(o_date.(o) / 365));
  let supplier = data.D.supplier in
  let s_nation = Table.ints supplier "s_nationkey" in
  let li = data.D.lineitem in
  let l_order = Table.ints li "l_orderkey" in
  let l_part = Table.ints li "l_partkey" in
  let l_supp = Table.ints li "l_suppkey" in
  let price = Table.floats li "l_extendedprice" in
  let disc = Table.floats li "l_discount" in
  let share = Exec.Hash_agg.create ~alloc ~expected:4 ~width:2 in
  Exec.parallel_scan ctx li
    ~columns:[ "l_orderkey"; "l_partkey"; "l_suppkey"; "l_extendedprice"; "l_discount" ]
    (fun ctx' r ->
      if Exec.Hash_join.mem ctx' parts ~key:l_part.(r) then
        Exec.Hash_join.probe_iter ctx' ord ~key:l_order.(r) (fun year ->
            let v = price.(r) *. (1.0 -. disc.(r)) in
            let from_nation = if s_nation.(l_supp.(r)) = target_nation then v else 0.0 in
            let a = Exec.Hash_agg.row ctx' share ~key:year in
            a.(0) <- a.(0) +. from_nation;
            a.(1) <- a.(1) +. v));
  let sum =
    Exec.Hash_agg.fold share
      (fun _ acc s -> if acc.(1) > 0.0 then s +. (acc.(0) /. acc.(1)) else s)
      0.0
  in
  { query = 8; checksum = sum; rows_out = Exec.Hash_agg.groups share }

(* Q9: product-type profit, by nation and year. *)
let q9 ctx ~alloc data =
  let part = data.D.part in
  let p_type = Table.ints part "p_type" in
  let parts = Exec.Hash_join.create ~alloc ~expected:(Table.rows part / 10) in
  Exec.parallel_scan ctx part ~columns:[ "p_partkey"; "p_type" ]
    (fun ctx' p ->
      if p_type.(p) mod 15 = 0 then Exec.Hash_join.insert ctx' parts ~key:p ~payload:p);
  let ps = data.D.partsupp in
  let ps_part = Table.ints ps "ps_partkey" in
  let ps_supp = Table.ints ps "ps_suppkey" in
  let ps_cost = Table.floats ps "ps_supplycost" in
  let cost = Exec.Hash_join.create ~alloc ~expected:(Table.rows ps / 10) in
  Exec.parallel_scan ctx ps ~columns:[ "ps_partkey"; "ps_suppkey"; "ps_supplycost" ]
    (fun ctx' r ->
      if Exec.Hash_join.mem ctx' parts ~key:ps_part.(r) then
        Exec.Hash_join.insert ctx'
          cost
          ~key:((ps_part.(r) * 65536) + ps_supp.(r))
          ~payload:(int_of_float (ps_cost.(r) *. 100.0)));
  let supplier = data.D.supplier in
  let s_nation = Table.ints supplier "s_nationkey" in
  let orders = data.D.orders in
  let o_date = Table.ints orders "o_orderdate" in
  let li = data.D.lineitem in
  let l_order = Table.ints li "l_orderkey" in
  let l_part = Table.ints li "l_partkey" in
  let l_supp = Table.ints li "l_suppkey" in
  let l_qty = Table.floats li "l_quantity" in
  let price = Table.floats li "l_extendedprice" in
  let disc = Table.floats li "l_discount" in
  let profit = Exec.Hash_agg.create ~alloc ~expected:200 ~width:1 in
  Exec.parallel_scan ctx li
    ~columns:
      [ "l_orderkey"; "l_partkey"; "l_suppkey"; "l_quantity"; "l_extendedprice"; "l_discount" ]
    (fun ctx' r ->
      Exec.Hash_join.probe_iter ctx' cost
        ~key:((l_part.(r) * 65536) + l_supp.(r))
        (fun cost_cents ->
          let year = o_date.(l_order.(r)) / 365 in
          let nat = s_nation.(l_supp.(r)) in
          let amount =
            (price.(r) *. (1.0 -. disc.(r)))
            -. (float_of_int cost_cents /. 100.0 *. l_qty.(r))
          in
          let a = Exec.Hash_agg.row ctx' profit ~key:((nat * 100) + year) in
          a.(0) <- a.(0) +. amount));
  Exec.charge_sort ctx ~rows:(Exec.Hash_agg.groups profit);
  let sum = Exec.Hash_agg.fold profit (fun _ acc s -> s +. acc.(0)) 0.0 in
  { query = 9; checksum = sum; rows_out = Exec.Hash_agg.groups profit }

(* Q10: returned-item reporting — revenue lost per customer. *)
let q10 ctx ~alloc data =
  let lo = D.day_of ~year:1993 + 270 and hi = D.day_of ~year:1994 in
  let orders = data.D.orders in
  let o_cust = Table.ints orders "o_custkey" in
  let o_date = Table.ints orders "o_orderdate" in
  let ord = Exec.Hash_join.create ~alloc ~expected:(Table.rows orders / 20) in
  Exec.parallel_scan ctx orders ~columns:[ "o_orderkey"; "o_custkey"; "o_orderdate" ]
    (fun ctx' o ->
      if o_date.(o) >= lo && o_date.(o) < hi then
        Exec.Hash_join.insert ctx' ord ~key:o ~payload:o_cust.(o));
  let li = data.D.lineitem in
  let l_order = Table.ints li "l_orderkey" in
  let l_rf = Table.ints li "l_returnflag" in
  let price = Table.floats li "l_extendedprice" in
  let disc = Table.floats li "l_discount" in
  let lost = Exec.Hash_agg.create ~alloc ~expected:2048 ~width:1 in
  Exec.parallel_scan ctx li
    ~columns:[ "l_orderkey"; "l_returnflag"; "l_extendedprice"; "l_discount" ]
    (fun ctx' r ->
      if l_rf.(r) = 0 (* 'R' *) then
        Exec.Hash_join.probe_iter ctx' ord ~key:l_order.(r) (fun cust ->
            let a = Exec.Hash_agg.row ctx' lost ~key:cust in
            a.(0) <- a.(0) +. (price.(r) *. (1.0 -. disc.(r)))));
  Exec.charge_sort ctx ~rows:(Exec.Hash_agg.groups lost);
  let sum = Exec.Hash_agg.fold lost (fun _ acc s -> s +. acc.(0)) 0.0 in
  { query = 10; checksum = sum; rows_out = Exec.Hash_agg.groups lost }

(* Q11: important stock identification in one nation. *)
let q11 ctx ~alloc data =
  let target_nation = 9 in
  let supplier = data.D.supplier in
  let s_nation = Table.ints supplier "s_nationkey" in
  let supp = Exec.Hash_join.create ~alloc ~expected:(Table.rows supplier / 25) in
  Exec.parallel_scan ctx supplier ~columns:[ "s_suppkey"; "s_nationkey" ]
    (fun ctx' s ->
      if s_nation.(s) = target_nation then
        Exec.Hash_join.insert ctx' supp ~key:s ~payload:s);
  let ps = data.D.partsupp in
  let ps_part = Table.ints ps "ps_partkey" in
  let ps_supp = Table.ints ps "ps_suppkey" in
  let ps_cost = Table.floats ps "ps_supplycost" in
  let ps_qty = Table.ints ps "ps_availqty" in
  let value = Exec.Hash_agg.create ~alloc ~expected:1024 ~width:1 in
  let total = [| 0.0 |] in
  Exec.parallel_scan ctx ps
    ~columns:[ "ps_partkey"; "ps_suppkey"; "ps_supplycost"; "ps_availqty" ]
    (fun ctx' r ->
      if Exec.Hash_join.mem ctx' supp ~key:ps_supp.(r) then begin
        let v = ps_cost.(r) *. float_of_int ps_qty.(r) in
        total.(0) <- total.(0) +. v;
        let a = Exec.Hash_agg.row ctx' value ~key:ps_part.(r) in
        a.(0) <- a.(0) +. v
      end);
  let threshold = total.(0) *. 0.001 in
  let rows = ref 0 and sum = [| 0.0 |] in
  Exec.Hash_agg.fold value
    (fun _ acc () ->
      if acc.(0) > threshold then begin
        incr rows;
        sum.(0) <- sum.(0) +. acc.(0)
      end)
    ();
  { query = 11; checksum = sum.(0); rows_out = !rows }

(* Q12: shipping-mode and order-priority counting. *)
let q12 ctx ~alloc data =
  let mode_a = 2 and mode_b = 5 in
  let lo = D.day_of ~year:1994 and hi = D.day_of ~year:1995 in
  let orders = data.D.orders in
  let o_prio = Table.ints orders "o_orderpriority" in
  let li = data.D.lineitem in
  let l_order = Table.ints li "l_orderkey" in
  let l_mode = Table.ints li "l_shipmode" in
  let l_commit = Table.ints li "l_commitdate" in
  let l_receipt = Table.ints li "l_receiptdate" in
  let l_ship = Table.ints li "l_shipdate" in
  let counts = Exec.Hash_agg.create ~alloc ~expected:4 ~width:2 in
  Exec.parallel_scan ctx li
    ~columns:[ "l_orderkey"; "l_shipmode"; "l_commitdate"; "l_receiptdate"; "l_shipdate" ]
    (fun ctx' r ->
      if
        (l_mode.(r) = mode_a || l_mode.(r) = mode_b)
        && l_commit.(r) < l_receipt.(r)
        && l_ship.(r) < l_commit.(r)
        && l_receipt.(r) >= lo && l_receipt.(r) < hi
      then begin
        (* charge the orders-side point lookup (index join) *)
        Column.touch ctx' (Table.col orders "o_orderpriority") l_order.(r);
        let high = if o_prio.(l_order.(r)) <= 1 then 1.0 else 0.0 in
        let a = Exec.Hash_agg.row ctx' counts ~key:l_mode.(r) in
        a.(0) <- a.(0) +. high;
        a.(1) <- a.(1) +. (1.0 -. high)
      end);
  let sum = Exec.Hash_agg.fold counts (fun _ acc s -> s +. acc.(0) +. (2.0 *. acc.(1))) 0.0 in
  { query = 12; checksum = sum; rows_out = Exec.Hash_agg.groups counts }

(* Q13: customer order-count distribution. *)
let q13 ctx ~alloc data =
  let orders = data.D.orders in
  let o_cust = Table.ints orders "o_custkey" in
  let o_prio = Table.ints orders "o_orderpriority" in
  let per_cust = Exec.Hash_agg.create ~alloc ~expected:(Table.rows data.D.customer) ~width:1 in
  Exec.parallel_scan ctx orders ~columns:[ "o_custkey"; "o_orderpriority" ]
    (fun ctx' o ->
      (* the NOT LIKE 'special requests' filter drops one priority class *)
      if o_prio.(o) <> 4 then begin
        let a = Exec.Hash_agg.row ctx' per_cust ~key:o_cust.(o) in
        a.(0) <- a.(0) +. 1.0
      end);
  let histogram = Hashtbl.create 64 in
  Exec.Hash_agg.fold per_cust
    (fun _ acc () ->
      let k = int_of_float acc.(0) in
      Hashtbl.replace histogram k (1 + Option.value ~default:0 (Hashtbl.find_opt histogram k)))
    ();
  Exec.charge_sort ctx ~rows:(Hashtbl.length histogram);
  let sum = Hashtbl.fold (fun k c s -> s +. float_of_int (k * c)) histogram 0.0 in
  { query = 13; checksum = sum; rows_out = Hashtbl.length histogram }

(* Q14: promotion-effect revenue share. *)
let q14 ctx ~alloc:_ data =
  let lo = D.day_of ~year:1995 + 240 and hi = D.day_of ~year:1995 + 270 in
  let part = data.D.part in
  let p_type = Table.ints part "p_type" in
  let li = data.D.lineitem in
  let l_part = Table.ints li "l_partkey" in
  let l_ship = Table.ints li "l_shipdate" in
  let price = Table.floats li "l_extendedprice" in
  let disc = Table.floats li "l_discount" in
  let promo = [| 0.0 |] and total = [| 0.0 |] in
  Exec.parallel_scan ctx li
    ~columns:[ "l_partkey"; "l_shipdate"; "l_extendedprice"; "l_discount" ]
    (fun ctx' r ->
      if l_ship.(r) >= lo && l_ship.(r) < hi then begin
        Column.touch ctx' (Table.col part "p_type") l_part.(r);
        let v = price.(r) *. (1.0 -. disc.(r)) in
        total.(0) <- total.(0) +. v;
        if p_type.(l_part.(r)) < 30 (* PROMO%% *) then promo.(0) <- promo.(0) +. v
      end);
  let share = if total.(0) > 0.0 then 100.0 *. promo.(0) /. total.(0) else 0.0 in
  { query = 14; checksum = share; rows_out = 1 }

(* Q15: top supplier by quarterly revenue. *)
let q15 ctx ~alloc data =
  let lo = D.day_of ~year:1996 in
  let hi = lo + 90 in
  let li = data.D.lineitem in
  let l_supp = Table.ints li "l_suppkey" in
  let l_ship = Table.ints li "l_shipdate" in
  let price = Table.floats li "l_extendedprice" in
  let disc = Table.floats li "l_discount" in
  let revenue = Exec.Hash_agg.create ~alloc ~expected:(Table.rows data.D.supplier) ~width:1 in
  Exec.parallel_scan ctx li
    ~columns:[ "l_suppkey"; "l_shipdate"; "l_extendedprice"; "l_discount" ]
    (fun ctx' r ->
      if l_ship.(r) >= lo && l_ship.(r) < hi then
        let a = Exec.Hash_agg.row ctx' revenue ~key:l_supp.(r) in
        a.(0) <- a.(0) +. (price.(r) *. (1.0 -. disc.(r))));
  let best = Exec.Hash_agg.fold revenue (fun _ acc m -> Float.max m acc.(0)) 0.0 in
  { query = 15; checksum = best; rows_out = Exec.Hash_agg.groups revenue }

(* Q16: parts/supplier relationship counting (distinct suppliers). *)
let q16 ctx ~alloc data =
  let part = data.D.part in
  let p_brand = Table.ints part "p_brand" in
  let p_size = Table.ints part "p_size" in
  let p_type = Table.ints part "p_type" in
  let wanted = Exec.Hash_join.create ~alloc ~expected:(Table.rows part / 3) in
  Exec.parallel_scan ctx part ~columns:[ "p_partkey"; "p_brand"; "p_size"; "p_type" ]
    (fun ctx' p ->
      if p_brand.(p) <> 11 && p_type.(p) mod 7 <> 0 && p_size.(p) mod 6 < 4 then
        Exec.Hash_join.insert ctx' wanted ~key:p
          ~payload:((p_brand.(p) * 10_000) + (p_type.(p) * 60) + p_size.(p)));
  let ps = data.D.partsupp in
  let ps_part = Table.ints ps "ps_partkey" in
  let ps_supp = Table.ints ps "ps_suppkey" in
  let distinct : (int * int, unit) Hashtbl.t = Hashtbl.create 4096 in
  Exec.parallel_scan ctx ps ~columns:[ "ps_partkey"; "ps_suppkey" ]
    (fun ctx' r ->
      Exec.Hash_join.probe_iter ctx' wanted ~key:ps_part.(r) (fun group ->
          Hashtbl.replace distinct (group, ps_supp.(r)) ()));
  let counts = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (group, _) () ->
      Hashtbl.replace counts group
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts group)))
    distinct;
  Exec.charge_sort ctx ~rows:(Hashtbl.length counts);
  let sum = Hashtbl.fold (fun _ c s -> s +. float_of_int c) counts 0.0 in
  { query = 16; checksum = sum; rows_out = Hashtbl.length counts }

(* Q17: small-quantity-order revenue for one brand/container. *)
let q17 ctx ~alloc data =
  let part = data.D.part in
  let p_brand = Table.ints part "p_brand" in
  let p_container = Table.ints part "p_container" in
  let wanted = Exec.Hash_join.create ~alloc ~expected:256 in
  Exec.parallel_scan ctx part ~columns:[ "p_partkey"; "p_brand"; "p_container" ]
    (fun ctx' p ->
      if p_brand.(p) = 13 && p_container.(p) = 7 then
        Exec.Hash_join.insert ctx' wanted ~key:p ~payload:p);
  let li = data.D.lineitem in
  let l_part = Table.ints li "l_partkey" in
  let l_qty = Table.floats li "l_quantity" in
  let price = Table.floats li "l_extendedprice" in
  let qty_stats = Exec.Hash_agg.create ~alloc ~expected:256 ~width:2 in
  Exec.parallel_scan ctx li ~columns:[ "l_partkey"; "l_quantity" ]
    (fun ctx' r ->
      if Exec.Hash_join.mem ctx' wanted ~key:l_part.(r) then
        let a = Exec.Hash_agg.row ctx' qty_stats ~key:l_part.(r) in
        a.(0) <- a.(0) +. l_qty.(r);
        a.(1) <- a.(1) +. 1.0);
  let total = [| 0.0 |] in
  Exec.parallel_scan ctx li ~columns:[ "l_partkey"; "l_quantity"; "l_extendedprice" ]
    (fun ctx' r ->
      if Exec.Hash_join.mem ctx' wanted ~key:l_part.(r) then
        match Exec.Hash_agg.get qty_stats ~key:l_part.(r) with
        | Some acc when acc.(1) > 0.0 ->
            if l_qty.(r) < 0.2 *. (acc.(0) /. acc.(1)) then
              total.(0) <- total.(0) +. price.(r)
        | _ -> ());
  { query = 17; checksum = total.(0) /. 7.0; rows_out = 1 }

(* Q18: large-volume customers (group-by on orderkey, the paper's noted
   outlier: uneven distribution limits chiplet gains). *)
let q18 ctx ~alloc data =
  let li = data.D.lineitem in
  let l_order = Table.ints li "l_orderkey" in
  let l_qty = Table.floats li "l_quantity" in
  let per_order = Exec.Hash_agg.create ~alloc ~expected:(Table.rows data.D.orders) ~width:1 in
  Exec.parallel_scan ctx li ~columns:[ "l_orderkey"; "l_quantity" ]
    (fun ctx' r ->
      let a = Exec.Hash_agg.row ctx' per_order ~key:l_order.(r) in
      a.(0) <- a.(0) +. l_qty.(r));
  let orders = data.D.orders in
  let o_total = Table.floats orders "o_totalprice" in
  let threshold = 180.0 in
  let sum = [| 0.0 |] and rows = ref 0 in
  Exec.parallel_scan ctx orders ~columns:[ "o_orderkey"; "o_totalprice" ]
    (fun _ctx' o ->
      match Exec.Hash_agg.get per_order ~key:o with
      | Some acc when acc.(0) > threshold ->
          incr rows;
          sum.(0) <- sum.(0) +. o_total.(o)
      | _ -> ());
  Exec.charge_sort ctx ~rows:!rows;
  { query = 18; checksum = sum.(0); rows_out = !rows }

(* Q19: discounted revenue with disjunctive brand/container predicates. *)
let q19 ctx ~alloc:_ data =
  let part = data.D.part in
  let p_brand = Table.ints part "p_brand" in
  let p_container = Table.ints part "p_container" in
  let li = data.D.lineitem in
  let l_part = Table.ints li "l_partkey" in
  let l_qty = Table.floats li "l_quantity" in
  let l_mode = Table.ints li "l_shipmode" in
  let price = Table.floats li "l_extendedprice" in
  let disc = Table.floats li "l_discount" in
  let revenue = [| 0.0 |] in
  Exec.parallel_scan ctx li
    ~columns:[ "l_partkey"; "l_quantity"; "l_shipmode"; "l_extendedprice"; "l_discount" ]
    (fun ctx' r ->
      if l_mode.(r) <= 1 then begin
        Column.touch ctx' (Table.col part "p_brand") l_part.(r);
        Column.touch ctx' (Table.col part "p_container") l_part.(r);
        let b = p_brand.(l_part.(r)) and c = p_container.(l_part.(r)) in
        let q = l_qty.(r) in
        if
          (b = 12 && c < 10 && q >= 1.0 && q <= 11.0)
          || (b = 23 && c >= 10 && c < 20 && q >= 10.0 && q <= 20.0)
          || (b = 33 && c >= 20 && c < 30 && q >= 20.0 && q <= 30.0)
        then revenue.(0) <- revenue.(0) +. (price.(r) *. (1.0 -. disc.(r)))
      end);
  { query = 19; checksum = revenue.(0); rows_out = 1 }

(* Q20: potential part promotion (nested semi-joins). *)
let q20 ctx ~alloc data =
  let part = data.D.part in
  let p_type = Table.ints part "p_type" in
  let wanted_parts = Exec.Hash_join.create ~alloc ~expected:(Table.rows part / 10) in
  Exec.parallel_scan ctx part ~columns:[ "p_partkey"; "p_type" ]
    (fun ctx' p ->
      if p_type.(p) mod 10 = 3 then
        Exec.Hash_join.insert ctx' wanted_parts ~key:p ~payload:p);
  let li = data.D.lineitem in
  let l_part = Table.ints li "l_partkey" in
  let l_supp = Table.ints li "l_suppkey" in
  let l_ship = Table.ints li "l_shipdate" in
  let l_qty = Table.floats li "l_quantity" in
  let lo = D.day_of ~year:1994 and hi = D.day_of ~year:1995 in
  let shipped = Exec.Hash_agg.create ~alloc ~expected:4096 ~width:1 in
  Exec.parallel_scan ctx li
    ~columns:[ "l_partkey"; "l_suppkey"; "l_shipdate"; "l_quantity" ]
    (fun ctx' r ->
      if
        l_ship.(r) >= lo && l_ship.(r) < hi
        && Exec.Hash_join.mem ctx' wanted_parts ~key:l_part.(r)
      then
        let a = Exec.Hash_agg.row ctx' shipped ~key:((l_part.(r) * 65536) + l_supp.(r)) in
        a.(0) <- a.(0) +. l_qty.(r));
  let ps = data.D.partsupp in
  let ps_part = Table.ints ps "ps_partkey" in
  let ps_supp = Table.ints ps "ps_suppkey" in
  let ps_qty = Table.ints ps "ps_availqty" in
  let suppliers : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  Exec.parallel_scan ctx ps ~columns:[ "ps_partkey"; "ps_suppkey"; "ps_availqty" ]
    (fun ctx' r ->
      match Exec.Hash_agg.get shipped ~key:((ps_part.(r) * 65536) + ps_supp.(r)) with
      | Some acc when float_of_int ps_qty.(r) > 0.5 *. acc.(0) ->
          Sched.Ctx.read ctx' (Column.sim (Table.col ps "ps_availqty")) r;
          Hashtbl.replace suppliers ps_supp.(r) ()
      | _ -> ());
  { query = 20; checksum = float_of_int (Hashtbl.length suppliers);
    rows_out = Hashtbl.length suppliers }

(* Q21: suppliers who kept orders waiting (multi-pass per-order analysis). *)
let q21 ctx ~alloc data =
  let target_nation = 4 in
  let li = data.D.lineitem in
  let l_order = Table.ints li "l_orderkey" in
  let l_supp = Table.ints li "l_suppkey" in
  let l_commit = Table.ints li "l_commitdate" in
  let l_receipt = Table.ints li "l_receiptdate" in
  let supplier = data.D.supplier in
  let s_nation = Table.ints supplier "s_nationkey" in
  (* pass 1: per order, collect distinct suppliers and late suppliers *)
  let supps = Exec.Hash_agg.create ~alloc ~expected:(Table.rows data.D.orders) ~width:2 in
  let late_supp : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  Exec.parallel_scan ctx li
    ~columns:[ "l_orderkey"; "l_suppkey"; "l_commitdate"; "l_receiptdate" ]
    (fun ctx' r ->
      let late = if l_receipt.(r) > l_commit.(r) then 1.0 else 0.0 in
      let a = Exec.Hash_agg.row ctx' supps ~key:l_order.(r) in
      a.(0) <- a.(0) +. 1.0;
      a.(1) <- a.(1) +. late;
      if late = 1.0 && not (Hashtbl.mem late_supp l_order.(r)) then
        Hashtbl.replace late_supp l_order.(r) l_supp.(r));
  (* pass 2: orders where exactly one supplier was late, and it is ours *)
  let counts = Exec.Hash_agg.create ~alloc ~expected:128 ~width:1 in
  let orders = data.D.orders in
  let o_status = Table.ints orders "o_orderstatus" in
  Exec.parallel_scan ctx orders ~columns:[ "o_orderkey"; "o_orderstatus" ]
    (fun ctx' o ->
      if o_status.(o) = 0 (* 'F' *) then
        match (Exec.Hash_agg.get supps ~key:o, Hashtbl.find_opt late_supp o) with
        | Some acc, Some s
          when acc.(1) >= 1.0 && acc.(1) < 2.0 && s_nation.(s) = target_nation ->
            Column.touch ctx' (Table.col supplier "s_nationkey") s;
            let a = Exec.Hash_agg.row ctx' counts ~key:s in
            a.(0) <- a.(0) +. 1.0
        | _ -> ());
  Exec.charge_sort ctx ~rows:(Exec.Hash_agg.groups counts);
  let sum = Exec.Hash_agg.fold counts (fun _ acc s -> s +. acc.(0)) 0.0 in
  { query = 21; checksum = sum; rows_out = Exec.Hash_agg.groups counts }

(* Q22: global sales opportunity (anti-join against orders). *)
let q22 ctx ~alloc data =
  let customer = data.D.customer in
  let c_acct = Table.floats customer "c_acctbal" in
  let c_nation = Table.ints customer "c_nationkey" in
  (* average positive balance *)
  let sum = [| 0.0 |] and cnt = ref 0 in
  Exec.parallel_scan ctx customer ~columns:[ "c_acctbal" ]
    (fun _ctx' c ->
      if c_acct.(c) > 0.0 then begin
        sum.(0) <- sum.(0) +. c_acct.(c);
        incr cnt
      end);
  let avg = if !cnt > 0 then sum.(0) /. float_of_int !cnt else 0.0 in
  let orders = data.D.orders in
  let o_cust = Table.ints orders "o_custkey" in
  let has_orders = Exec.Hash_join.create ~alloc ~expected:(Table.rows customer) in
  Exec.parallel_scan ctx orders ~columns:[ "o_custkey" ]
    (fun ctx' o ->
      if not (Exec.Hash_join.mem ctx' has_orders ~key:o_cust.(o)) then
        Exec.Hash_join.insert ctx' has_orders ~key:o_cust.(o) ~payload:o);
  let per_code = Exec.Hash_agg.create ~alloc ~expected:7 ~width:2 in
  Exec.parallel_scan ctx customer ~columns:[ "c_custkey"; "c_acctbal"; "c_nationkey" ]
    (fun ctx' c ->
      let code = c_nation.(c) mod 7 in
      if code < 5 (* IN ('13','31',...) *) && c_acct.(c) > avg
         && not (Exec.Hash_join.mem ctx' has_orders ~key:c)
      then begin
        let a = Exec.Hash_agg.row ctx' per_code ~key:code in
        a.(0) <- a.(0) +. 1.0;
        a.(1) <- a.(1) +. c_acct.(c)
      end);
  let total = Exec.Hash_agg.fold per_code (fun _ acc s -> s +. acc.(1)) 0.0 in
  { query = 22; checksum = total; rows_out = Exec.Hash_agg.groups per_code }

let run ctx ~alloc data n =
  match n with
  | 1 -> q1 ctx ~alloc data
  | 2 -> q2 ctx ~alloc data
  | 3 -> q3 ctx ~alloc data
  | 4 -> q4 ctx ~alloc data
  | 5 -> q5 ctx ~alloc data
  | 6 -> q6 ctx ~alloc data
  | 7 -> q7 ctx ~alloc data
  | 8 -> q8 ctx ~alloc data
  | 9 -> q9 ctx ~alloc data
  | 10 -> q10 ctx ~alloc data
  | 11 -> q11 ctx ~alloc data
  | 12 -> q12 ctx ~alloc data
  | 13 -> q13 ctx ~alloc data
  | 14 -> q14 ctx ~alloc data
  | 15 -> q15 ctx ~alloc data
  | 16 -> q16 ctx ~alloc data
  | 17 -> q17 ctx ~alloc data
  | 18 -> q18 ctx ~alloc data
  | 19 -> q19 ctx ~alloc data
  | 20 -> q20 ctx ~alloc data
  | 21 -> q21 ctx ~alloc data
  | 22 -> q22 ctx ~alloc data
  | _ -> invalid_arg "Tpch_queries.run: query number must be in [1, 22]"

let execute env data n =
  let result = ref { query = n; checksum = 0.0; rows_out = 0 } in
  let alloc ~elt_bytes ~count = env.Workloads.Exec_env.alloc_shared ~elt_bytes ~count in
  (* quiesce: align worker clocks so the makespan delta is exactly this
     query's duration *)
  let sched = env.Workloads.Exec_env.sched in
  Engine.Sched.sync_clocks sched;
  let before = Engine.Sched.worker_clock sched 0 in
  let makespan = env.Workloads.Exec_env.run (fun ctx -> result := run ctx ~alloc data n) in
  (!result, Float.max 0.0 (makespan -. before))
