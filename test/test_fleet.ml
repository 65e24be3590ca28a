(* The fleet tier: router determinism, relocation semantics, the router's
   offline floor, and the planted-bug invariant gates. *)

module Sys_ = Harness.Systems
module Server = Serving.Server
module Cluster = Fleet.Cluster
module Router = Fleet.Router
module Schedule = Faults.Schedule

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let base_config ?(jobs = 12) ?(rate = 8000.0) ~seed () =
  let base = Cluster.default_config ~seed in
  let serve = base.Cluster.serve in
  let tenants =
    List.map
      (fun t ->
        {
          t with
          Server.process = Serving.Arrivals.Open_loop { rate_per_s = rate };
          jobs;
        })
      serve.Server.tenants
  in
  {
    base with
    Cluster.n_workers = 8;
    serve = { serve with Server.tenants; check = true };
  }

let topo = Sys_.topology Sys_.Amd_milan ~cache_scale:16

(* mild faults barely dent a 128-core machine's online capacity, so the
   degradation scenarios throttle every core — heavy enough to cross the
   relocation threshold *)
let quarter_speed_everywhere ~at_us =
  List.init (Chipsim.Topology.num_cores topo) (fun core ->
      {
        Schedule.at_ns = at_us *. 1e3;
        kind = Schedule.Dvfs { core; speed = 0.2 };
      })

let all_cores_off =
  List.init (Chipsim.Topology.num_cores topo) (fun core ->
      { Schedule.at_ns = 0.0; kind = Schedule.Core_off core })

(* -- determinism -------------------------------------------------------- *)

let test_router_determinism () =
  List.iter
    (fun policy ->
      let run () =
        let cfg =
          { (base_config ~jobs:8 ~seed:7 ()) with Cluster.policy }
        in
        let res = Cluster.run cfg in
        (res.Cluster.placement_log, Cluster.result_to_json res)
      in
      let log1, json1 = run () in
      let log2, json2 = run () in
      Alcotest.(check string)
        (Router.policy_name policy ^ " placement log byte-identical")
        log1 log2;
      Alcotest.(check string)
        (Router.policy_name policy ^ " result json byte-identical")
        json1 json2;
      match Engine.Json.parse json1 with
      | Ok doc ->
          Alcotest.(check bool) "result names its shards" true
            (Option.is_some (Engine.Json.member "shards_detail" doc))
      | Error e -> Alcotest.failf "result is not valid JSON: %s" e)
    Router.all_policies

let test_seed_changes_placement () =
  let log seed =
    (Cluster.run (base_config ~jobs:8 ~seed ())).Cluster.placement_log
  in
  Alcotest.(check bool) "different seeds, different logs" true
    (log 7 <> log 8)

(* -- relocation --------------------------------------------------------- *)

let sum_tenants f (sr : Cluster.shard_result) =
  List.fold_left
    (fun acc (tr : Server.tenant_report) -> acc + f tr)
    0 sr.Cluster.report.Server.tenant_reports

let test_relocation_drains_degraded_only () =
  let cfg =
    {
      (base_config ~jobs:20 ~rate:12_000.0 ~seed:11 ()) with
      Cluster.faults = [ (0, quarter_speed_everywhere ~at_us:150.0) ];
    }
  in
  let res = Cluster.run cfg in
  Alcotest.(check bool) "relocations happened" true (res.Cluster.relocations > 0);
  List.iter
    (fun (sr : Cluster.shard_result) ->
      let out = sum_tenants (fun tr -> tr.Server.relocated_out) sr in
      let in_ = sum_tenants (fun tr -> tr.Server.relocated_in) sr in
      if sr.Cluster.shard = 0 then begin
        Alcotest.(check bool) "degraded shard drained" true (out > 0);
        Alcotest.(check int) "nothing relocated onto the degraded shard" 0 in_
      end
      else begin
        Alcotest.(check int)
          (Printf.sprintf "healthy shard %d not drained" sr.Cluster.shard)
          0 out;
        Alcotest.(check bool) "healthy shard absorbed the drain" true (in_ > 0)
      end)
    res.Cluster.shard_results;
  (* relocation must not lose jobs: the conservation checks already ran
     inside [Cluster.run] (serve.check), re-run them on the final result *)
  Cluster.check_result res

let test_no_relocation_flag () =
  let cfg =
    {
      (base_config ~jobs:20 ~rate:12_000.0 ~seed:11 ()) with
      Cluster.faults = [ (0, quarter_speed_everywhere ~at_us:150.0) ];
      relocation = false;
    }
  in
  let res = Cluster.run cfg in
  Alcotest.(check int) "no relocations when disabled" 0 res.Cluster.relocations

(* -- the router's offline floor ----------------------------------------- *)

let test_router_skips_offline_shard () =
  let cfg =
    {
      (base_config ~jobs:10 ~seed:5 ()) with
      Cluster.faults = [ (1, all_cores_off) ];
    }
  in
  let res = Cluster.run cfg in
  List.iter
    (fun (sr : Cluster.shard_result) ->
      if sr.Cluster.shard = 1 then
        Alcotest.(check int) "offline shard receives nothing" 0
          sr.Cluster.placed)
    res.Cluster.shard_results;
  Alcotest.(check int) "nothing shed at the router (shard 0 is up)" 0
    res.Cluster.router_shed

let test_negative_shards_rejected () =
  (* charm_serve --fleet -1 lands here; only 0 means single-machine *)
  match Cluster.run { (base_config ~seed:1 ()) with Cluster.n_shards = -1 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n_shards = -1 accepted"

(* input boundary: each of these used to hang (the diurnal thinning loop
   never accepted an arrival) or die on an uncaught runaway-loop failure;
   all must be rejected as a bad configuration *)
let rejected ~says f () =
  match Cluster.run (f (base_config ~seed:1 ())) with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) (Printf.sprintf "%S names %S" msg says) true
        (contains msg says)
  | _ -> Alcotest.failf "accepted; expected a rejection naming %S" says

let test_nan_diurnal_rejected =
  rejected ~says:"diurnal amplitude" (fun c ->
      { c with Cluster.diurnal_amplitude = Float.nan })

let test_nan_diurnal_period_rejected =
  rejected ~says:"diurnal period" (fun c ->
      { c with Cluster.diurnal_amplitude = 0.5; diurnal_period_us = Float.nan })

let test_nan_epoch_rejected =
  rejected ~says:"epoch_us must be finite" (fun c ->
      { c with Cluster.epoch_us = Float.nan })

let test_tiny_epoch_rejected =
  (* finite and positive, but a million epochs never reach the first
     arrival: the epoch cap must surface as a configuration error *)
  rejected ~says:"--epoch-us" (fun c -> { c with Cluster.epoch_us = 1e-300 })

(* -- planted bugs: the invariants must catch them ----------------------- *)

let with_plant kind f =
  Chipsim.Invariant.Plant.set (Some kind);
  Fun.protect ~finally:(fun () -> Chipsim.Invariant.Plant.set None) f

let test_plant_drop_relocated_trips () =
  let cfg =
    {
      (base_config ~jobs:20 ~rate:12_000.0 ~seed:11 ()) with
      Cluster.faults = [ (0, quarter_speed_everywhere ~at_us:150.0) ];
    }
  in
  match with_plant Chipsim.Invariant.Plant.Drop_relocated (fun () -> Cluster.run cfg) with
  | _ -> Alcotest.fail "planted drop-relocated bug was not caught"
  | exception Chipsim.Invariant.Violation msg ->
      Alcotest.(check bool)
        ("conservation message names the router: " ^ msg)
        true
        (contains msg "router")

let test_plant_route_offline_trips () =
  let cfg =
    {
      (base_config ~jobs:10 ~seed:5 ()) with
      Cluster.faults = [ (1, all_cores_off) ];
    }
  in
  match with_plant Chipsim.Invariant.Plant.Route_offline (fun () -> Cluster.run cfg) with
  | _ -> Alcotest.fail "planted route-offline bug was not caught"
  | exception Chipsim.Invariant.Violation msg ->
      Alcotest.(check bool)
        ("message names the offline placement: " ^ msg)
        true
        (contains msg "fully-offline")

(* -- the EWMA policy ----------------------------------------------------- *)

let fresh_views () =
  [|
    { Router.shard = 0; capacity = 1.0; sick_fraction = 0.0; load_ns = 0.0; depth = 0 };
    { Router.shard = 1; capacity = 1.0; sick_fraction = 0.0; load_ns = 0.0; depth = 0 };
  |]

let test_ewma_observe_math () =
  let r = Router.create Router.Ewma in
  Alcotest.(check (float 0.0)) "zero before any observation" 0.0
    (Router.observed_latency r ~shard:0);
  Router.observe r ~shard:0 ~service_ns:1000.0;
  Alcotest.(check (float 1e-6)) "first sample taken raw" 1000.0
    (Router.observed_latency r ~shard:0);
  Router.observe r ~shard:0 ~service_ns:2000.0;
  Alcotest.(check (float 1e-6)) "then a 0.2 blend" 1200.0
    (Router.observed_latency r ~shard:0);
  Router.observe r ~shard:0 ~service_ns:(-5.0);
  Alcotest.(check (float 1e-6)) "negative samples ignored" 1200.0
    (Router.observed_latency r ~shard:0);
  Alcotest.(check (float 0.0)) "other shards unaffected" 0.0
    (Router.observed_latency r ~shard:1)

let test_ewma_choice () =
  let r = Router.create Router.Ewma in
  Alcotest.(check (option int)) "unobserved tie goes to the lowest shard"
    (Some 0)
    (Router.choose r ~tenant:"t" ~cost:1000.0 (fresh_views ()));
  Router.observe r ~shard:0 ~service_ns:5000.0;
  Alcotest.(check (option int)) "unobserved shard explored first" (Some 1)
    (Router.choose r ~tenant:"t" ~cost:1000.0 (fresh_views ()));
  Router.observe r ~shard:1 ~service_ns:1000.0;
  Alcotest.(check (option int)) "lower EWMA wins at equal depth" (Some 1)
    (Router.choose r ~tenant:"t" ~cost:1000.0 (fresh_views ()));
  (* a deep enough queue on the fast shard flips the choice:
     5000*(1+0) < 1000*(1+10) *)
  let v = fresh_views () in
  v.(1).Router.depth <- 10;
  Alcotest.(check (option int)) "queue depth scales the score" (Some 0)
    (Router.choose r ~tenant:"t" ~cost:1000.0 v)

let test_ewma_avoids_slow_shard () =
  (* shard 0 limps at 20% speed from t=0; the EWMA router should learn
     that from completions alone and steer more jobs to shard 1 than
     blind round-robin does, with relocation disabled so routing is the
     only mechanism in play *)
  let submitted_to_shard_0 policy =
    let cfg =
      {
        (base_config ~jobs:24 ~rate:12_000.0 ~seed:13 ()) with
        Cluster.policy;
        faults = [ (0, quarter_speed_everywhere ~at_us:0.0) ];
        relocation = false;
      }
    in
    let res = Cluster.run cfg in
    let sr =
      List.find
        (fun (sr : Cluster.shard_result) -> sr.Cluster.shard = 0)
        res.Cluster.shard_results
    in
    sum_tenants (fun tr -> tr.Server.submitted) sr
  in
  let rr = submitted_to_shard_0 Router.Round_robin in
  let ewma = submitted_to_shard_0 Router.Ewma in
  Alcotest.(check bool)
    (Printf.sprintf "ewma sends fewer jobs (%d) to the slow shard than \
                     round-robin (%d)" ewma rr)
    true (ewma < rr)

(* -- merged observability ----------------------------------------------- *)

let test_merged_registry_counters () =
  let res = Cluster.run (base_config ~jobs:8 ~seed:3 ()) in
  let reg = res.Cluster.registry in
  Alcotest.(check int) "fleet.submitted mirrors the router ledger"
    res.Cluster.router_submitted
    (Serving.Metrics.counter_value reg "fleet.submitted");
  Alcotest.(check int) "merged completions cover every arrival"
    res.Cluster.router_submitted
    (Serving.Metrics.counter_value reg "serve.completed"
    + Serving.Metrics.counter_value reg "serve.shed"
    + res.Cluster.router_shed);
  Alcotest.(check int) "fleet latency histogram counts completions"
    (Serving.Metrics.counter_value reg "serve.completed")
    (Serving.Histogram.count res.Cluster.fleet_latency)

let () =
  Alcotest.run "fleet"
    [
      ( "fleet",
        [
          Alcotest.test_case "router determinism" `Quick test_router_determinism;
          Alcotest.test_case "seed changes placement" `Quick
            test_seed_changes_placement;
          Alcotest.test_case "relocation drains degraded only" `Quick
            test_relocation_drains_degraded_only;
          Alcotest.test_case "no-relocation flag" `Quick test_no_relocation_flag;
          Alcotest.test_case "router skips offline shard" `Quick
            test_router_skips_offline_shard;
          Alcotest.test_case "nan diurnal amplitude rejected" `Quick
            test_nan_diurnal_rejected;
          Alcotest.test_case "nan diurnal period rejected" `Quick
            test_nan_diurnal_period_rejected;
          Alcotest.test_case "nan epoch rejected" `Quick test_nan_epoch_rejected;
          Alcotest.test_case "tiny epoch rejected" `Quick test_tiny_epoch_rejected;
          Alcotest.test_case "negative shard count rejected" `Quick
            test_negative_shards_rejected;
          Alcotest.test_case "planted drop-relocated trips" `Quick
            test_plant_drop_relocated_trips;
          Alcotest.test_case "planted route-offline trips" `Quick
            test_plant_route_offline_trips;
          Alcotest.test_case "ewma observe math" `Quick test_ewma_observe_math;
          Alcotest.test_case "ewma choice" `Quick test_ewma_choice;
          Alcotest.test_case "ewma avoids slow shard" `Quick
            test_ewma_avoids_slow_shard;
          Alcotest.test_case "merged registry counters" `Quick
            test_merged_registry_counters;
        ] );
    ]
