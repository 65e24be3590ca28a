(* The invariant layer catches tampering and passes clean runs. *)

open Chipsim
open Engine

let machine () = Machine.create (Presets.amd_milan ())

let violation f =
  match f () with
  | _ -> None
  | exception Invariant.Violation msg -> Some msg

let test_clean_checked_run () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:4 ~placement:(fun w -> w) in
  Sched.set_check sched true;
  Alcotest.(check bool) "enabled" true (Sched.check_enabled sched);
  for i = 1 to 32 do
    ignore
      (Sched.spawn sched ~at:(float_of_int (i * 10)) (fun ctx ->
           Sched.Ctx.work ctx 200.0;
           ignore (Sched.Ctx.spawn ctx (fun ctx' -> Sched.Ctx.work ctx' 50.0))))
  done;
  ignore (Sched.run sched : float);
  (* explicit re-verification is idempotent *)
  Sched.check_quiescent sched;
  Machine.check_invariants_full m

let test_pmu_tamper_caught () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:2 ~placement:(fun w -> w) in
  let region = Machine.alloc m ~elt_bytes:8 ~count:1024 () in
  ignore
    (Sched.spawn sched (fun ctx ->
         for i = 0 to 255 do
           Sched.Ctx.read ctx region i
         done));
  ignore (Sched.run sched : float);
  Machine.check_invariants m;
  (* bump one fill class without a matching access: conservation breaks *)
  Pmu.incr (Machine.pmu m) ~core:0 Pmu.L2_hit;
  match violation (fun () -> Machine.check_invariants m) with
  | Some msg ->
      Alcotest.(check bool) "names the fill conservation law" true
        (String.length msg > 0)
  | None -> Alcotest.fail "tampered PMU passed the conservation check"

let test_backwards_clock_caught () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:1 ~placement:(fun w -> w) in
  Sched.set_check sched true;
  ignore
    (Sched.spawn sched (fun ctx ->
         Sched.Ctx.work ctx 100.0;
         (* a buggy policy hook refunding more time than the quantum used:
            the worker clock lands before the quantum started *)
         Sched.charge sched ~worker:0 (-1e9)));
  (match violation (fun () -> ignore (Sched.run sched : float)) with
  | Some _ -> ()
  | None -> Alcotest.fail "backwards clock passed the monotonicity check");
  Alcotest.(check bool) "still enabled after violation" true
    (Sched.check_enabled sched)

let test_planted_ready_clamp_caught () =
  (* with the ready-at clamp planted away, an idle thief steals a task
     due within its steal horizon and starts it early: causality breaks *)
  let run () =
    let sched = Sched.create (machine ()) ~n_workers:2 ~placement:(fun w -> w) in
    Sched.set_check sched true;
    (* worker 1 finishes its own short task near t = 100 ns, then steals
       one of worker 0's tasks that are due a few hundred ns later *)
    ignore (Sched.spawn sched ~worker:1 (fun ctx -> Sched.Ctx.work ctx 100.0));
    List.iter
      (fun at ->
        ignore
          (Sched.spawn sched ~worker:0 ~at (fun ctx -> Sched.Ctx.work ctx 5_000.0)))
      [ 500.0; 600.0; 700.0 ];
    ignore (Sched.run sched : float)
  in
  run ();
  Invariant.Plant.set (Some Invariant.Plant.Skip_ready_clamp);
  let caught =
    Fun.protect ~finally:(fun () -> Invariant.Plant.set None) (fun () -> violation run)
  in
  match caught with
  | Some _ -> ()
  | None -> Alcotest.fail "planted skip-ready-clamp passed the causality check"

let test_checked_serve_run () =
  let inst =
    Harness.Systems.make ~cache_scale:16 Harness.Systems.Charm
      Harness.Systems.Amd_milan_1s ~n_workers:4 ()
  in
  let cfg = Serving.Server.default_config ~seed:7 in
  let cfg =
    {
      cfg with
      Serving.Server.check = true;
      tenants =
        List.map
          (fun t -> { t with Serving.Server.jobs = 4 })
          cfg.Serving.Server.tenants;
    }
  in
  let report = Serving.Server.run inst cfg in
  Alcotest.(check bool) "completed jobs" true
    (List.exists
       (fun t -> t.Serving.Server.completed > 0)
       report.Serving.Server.tenant_reports)

let test_catalog_nonempty () =
  Alcotest.(check bool) "catalog covers every layer" true
    (List.length Check.Invariants.catalog >= 8);
  List.iter
    (fun (name, statement) ->
      Alcotest.(check bool) (name ^ " described") true
        (String.length statement > 0))
    Check.Invariants.catalog

let suite =
  [
    Alcotest.test_case "clean checked run passes" `Quick test_clean_checked_run;
    Alcotest.test_case "pmu tamper caught" `Quick test_pmu_tamper_caught;
    Alcotest.test_case "backwards clock caught" `Quick test_backwards_clock_caught;
    Alcotest.test_case "planted ready clamp caught" `Quick
      test_planted_ready_clamp_caught;
    Alcotest.test_case "checked serve run passes" `Quick test_checked_serve_run;
    Alcotest.test_case "catalog nonempty" `Quick test_catalog_nonempty;
  ]
