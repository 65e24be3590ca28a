open Chipsim

let mem () = Simmem.create (Presets.amd_milan ())

let test_alloc_disjoint () =
  let m = mem () in
  let a = Simmem.alloc m ~elt_bytes:8 ~count:100 () in
  let b = Simmem.alloc m ~elt_bytes:8 ~count:100 () in
  let a_last = Simmem.addr a 99 and b_first = Simmem.addr b 0 in
  Alcotest.(check bool) "regions ordered" true (a_last < b_first);
  Alcotest.(check bool) "no shared page" true
    (a_last / Simmem.page_bytes < b_first / Simmem.page_bytes)

let test_first_touch () =
  let m = mem () in
  let r = Simmem.alloc m ~elt_bytes:8 ~count:1024 () in
  let node = Simmem.node_of_addr m ~toucher_node:1 (Simmem.addr r 0) in
  Alcotest.(check int) "first touch binds to toucher" 1 node;
  (* second touch from elsewhere keeps the placement *)
  let node' = Simmem.node_of_addr m ~toucher_node:0 (Simmem.addr r 0) in
  Alcotest.(check int) "sticky" 1 node'

let test_bind () =
  let m = mem () in
  let r = Simmem.alloc m ~policy:(Simmem.Bind 1) ~elt_bytes:8 ~count:1024 () in
  Alcotest.(check int) "bound node" 1
    (Simmem.node_of_addr m ~toucher_node:0 (Simmem.addr r 0))

let test_interleave () =
  let m = mem () in
  let pages = 8 in
  let count = pages * Simmem.page_bytes / 8 in
  let r = Simmem.alloc m ~policy:Simmem.Interleave ~elt_bytes:8 ~count () in
  let nodes =
    List.init pages (fun p ->
        Simmem.node_of_addr m ~toucher_node:0 (Simmem.addr r (p * Simmem.page_bytes / 8)))
  in
  Alcotest.(check (list int)) "alternating" [ 0; 1; 0; 1; 0; 1; 0; 1 ] nodes

let test_validation () =
  let m = mem () in
  (try
     ignore (Simmem.alloc m ~policy:(Simmem.Bind 5) ~elt_bytes:8 ~count:4 ());
     Alcotest.fail "accepted bad bind node"
   with Invalid_argument _ -> ());
  try
    ignore (Simmem.alloc m ~elt_bytes:0 ~count:4 ());
    Alcotest.fail "accepted zero elt_bytes"
  with Invalid_argument _ -> ()

let prop_addr_within_region =
  QCheck.Test.make ~name:"addresses stay within the region" ~count:100
    QCheck.(pair (int_range 1 64) (int_range 1 1000))
    (fun (elt_bytes, count) ->
      let m = mem () in
      let r = Simmem.alloc m ~elt_bytes ~count () in
      let last = Simmem.addr r (count - 1) in
      last + elt_bytes <= r.Simmem.base + r.Simmem.length_bytes)

let suite =
  [
    Alcotest.test_case "allocations disjoint" `Quick test_alloc_disjoint;
    Alcotest.test_case "first touch" `Quick test_first_touch;
    Alcotest.test_case "bind" `Quick test_bind;
    Alcotest.test_case "interleave" `Quick test_interleave;
    Alcotest.test_case "validation" `Quick test_validation;
    QCheck_alcotest.to_alcotest prop_addr_within_region;
  ]
