(* Serving layer: arrivals, histogram quantiles, admission bounds,
   weighted fair queueing, and end-to-end server determinism. *)

module Arrivals = Serving.Arrivals
module Histogram = Serving.Histogram
module Admission = Serving.Admission
module Fair_queue = Serving.Fair_queue
module Metrics = Serving.Metrics
module Server = Serving.Server
module Sys_ = Harness.Systems

(* -- arrivals ---------------------------------------------------------- *)

let test_poisson_deterministic () =
  let times seed =
    Arrivals.poisson_times ~rng:(Engine.Rng.create seed) ~rate_per_s:1000.0
      ~jobs:50
  in
  Alcotest.(check bool) "same seed, same trace" true (times 7 = times 7);
  Alcotest.(check bool) "different seed, different trace" true (times 7 <> times 8)

let test_poisson_shape () =
  let times =
    Arrivals.poisson_times ~rng:(Engine.Rng.create 3) ~rate_per_s:1000.0
      ~jobs:2000
  in
  Alcotest.(check int) "count" 2000 (Array.length times);
  Array.iteri
    (fun i t ->
      if i > 0 then
        Alcotest.(check bool) "strictly increasing" true (t > times.(i - 1)))
    times;
  (* mean gap of a 1000/s process is 1e6 ns; the 2000-sample average must
     land well within 10% *)
  let mean_gap = times.(Array.length times - 1) /. 2000.0 in
  Alcotest.(check bool) "mean gap near 1/rate" true
    (mean_gap > 0.9e6 && mean_gap < 1.1e6)

(* -- input boundary: rejected before any simulation runs --------------- *)

let rejects name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: accepted" name

let run_tenant f =
  let inst = Sys_.make ~cache_scale:16 Sys_.Charm Sys_.Amd_milan_1s ~n_workers:2 () in
  let base = Server.default_config ~seed:1 in
  let tenant = f (List.hd base.Server.tenants) in
  ignore (Server.run inst { base with Server.tenants = [ tenant ] } : Server.report)

let test_nan_rate_rejected () =
  (* a NaN gap never advances the arrival clock: this used to hang *)
  rejects "poisson_times" (fun () ->
      Arrivals.poisson_times ~rng:(Engine.Rng.create 1) ~rate_per_s:Float.nan
        ~jobs:4);
  rejects "server" (fun () ->
      run_tenant (fun t ->
          { t with Server.process = Arrivals.Open_loop { rate_per_s = Float.nan } }))

let test_bad_slo_rejected () =
  List.iter
    (fun slo_factor ->
      rejects (Printf.sprintf "slo factor %g" slo_factor) (fun () ->
          run_tenant (fun t -> { t with Server.slo_factor })))
    [ -1.0; 0.0; Float.nan ]

let test_negative_think_rejected () =
  rejects "think time -1 us" (fun () ->
      run_tenant (fun t ->
          {
            t with
            Server.process = Arrivals.Closed_loop { clients = 2; think_ns = -1000.0 };
          }))

let test_no_closed_loop_clients_rejected () =
  (* these used to run silently as one client *)
  List.iter
    (fun clients ->
      rejects (Printf.sprintf "%d closed-loop clients" clients) (fun () ->
          run_tenant (fun t ->
              {
                t with
                Server.process = Arrivals.Closed_loop { clients; think_ns = 0.0 };
              })))
    [ 0; -3 ]

let test_zero_queue_bound_rejected () =
  (* these used to be raised silently to 1 by Admission.scale's floor *)
  let inst = Sys_.make ~cache_scale:16 Sys_.Charm Sys_.Amd_milan_1s ~n_workers:2 () in
  let base = Server.default_config ~seed:1 in
  List.iter
    (fun (per_tenant, global) ->
      rejects (Printf.sprintf "queue bounds %d/%d" per_tenant global) (fun () ->
          Server.run inst
            {
              base with
              Server.admission =
                {
                  Admission.max_queue_per_tenant = per_tenant;
                  max_global_queue = global;
                };
            }))
    [ (0, 0); (-1, -2); (4, 0) ]

(* -- histogram --------------------------------------------------------- *)

let test_histogram_quantiles () =
  let h = Histogram.create () in
  for v = 1 to 100 do
    Histogram.observe h (float_of_int v)
  done;
  Alcotest.(check int) "count" 100 (Histogram.count h);
  Alcotest.(check (float 0.001)) "sum" 5050.0 (Histogram.sum h);
  Alcotest.(check (float 0.001)) "max" 100.0 (Histogram.max_value h);
  (* bucket growth is 12%, so quantiles carry <= 12% relative error *)
  let near q expect =
    let v = Histogram.quantile h q in
    Alcotest.(check bool)
      (Printf.sprintf "q%.2f=%g near %g" q v expect)
      true
      (v >= expect && v <= expect *. 1.13)
  in
  near 0.5 50.0;
  near 0.95 95.0;
  near 0.99 99.0;
  Alcotest.(check bool) "q1 clamped to max" true (Histogram.quantile h 1.0 <= 100.0)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  for v = 1 to 50 do
    Histogram.observe a (float_of_int v)
  done;
  for v = 51 to 100 do
    Histogram.observe b (float_of_int v)
  done;
  Histogram.merge a b;
  Alcotest.(check int) "merged count" 100 (Histogram.count a);
  Alcotest.(check (float 0.001)) "merged max" 100.0 (Histogram.max_value a);
  Alcotest.check_raises "parameter mismatch"
    (Invalid_argument "Histogram.merge: incompatible bucket parameters")
    (fun () -> Histogram.merge a (Histogram.create ~growth:2.0 ()))

let test_histogram_p999 () =
  let h = Histogram.create () in
  for v = 1 to 10_000 do
    Histogram.observe h (float_of_int v)
  done;
  Alcotest.(check bool) "p999 above p99" true
    (Histogram.p999 h >= Histogram.p99 h);
  (* bucket growth 12% bounds the relative error *)
  Alcotest.(check bool) "p999 near 9990" true
    (Histogram.p999 h > 0.85 *. 9990.0 && Histogram.p999 h < 1.15 *. 9990.0)

let test_histogram_absurd_samples () =
  let h = Histogram.create () in
  Histogram.observe h 10.0;
  (* a single absurd sample must neither allocate an unbounded counts
     array nor wedge the quantile scan *)
  Histogram.observe h infinity;
  Histogram.observe h Float.nan;
  Histogram.observe h (-5.0);
  Alcotest.(check int) "all samples counted" 4 (Histogram.count h);
  Alcotest.(check bool) "median still finite" true
    (Float.is_finite (Histogram.p50 h));
  Alcotest.(check bool) "p999 lands in overflow bucket" true
    (Float.is_finite (Histogram.p999 h))

(* -- admission --------------------------------------------------------- *)

let test_admission_scaling () =
  let cfg = { Admission.max_queue_per_tenant = 10; max_global_queue = 40 } in
  let scaled = Admission.scale cfg ~capacity:0.5 in
  Alcotest.(check int) "tenant bound halved" 5 scaled.Admission.max_queue_per_tenant;
  Alcotest.(check int) "global bound halved" 20 scaled.Admission.max_global_queue;
  let floor = Admission.scale cfg ~capacity:0.0 in
  Alcotest.(check int) "never below one slot" 1 floor.Admission.max_queue_per_tenant;
  let full = Admission.scale cfg ~capacity:1.0 in
  Alcotest.(check bool) "full capacity unchanged" true (full = cfg)

let test_admission_bounds () =
  let cfg = { Admission.max_queue_per_tenant = 4; max_global_queue = 6 } in
  Alcotest.(check bool) "under both bounds" true
    (Admission.decide cfg ~tenant_depth:3 ~global_depth:3 = Admission.Admit);
  Alcotest.(check bool) "tenant full" true
    (Admission.decide cfg ~tenant_depth:4 ~global_depth:4
    = Admission.Shed_tenant_full);
  Alcotest.(check bool) "server full" true
    (Admission.decide cfg ~tenant_depth:2 ~global_depth:6
    = Admission.Shed_server_full);
  (* the tenant bound shields the global one *)
  Alcotest.(check bool) "tenant checked first" true
    (Admission.decide cfg ~tenant_depth:4 ~global_depth:6
    = Admission.Shed_tenant_full)

let test_server_sheds_at_bound () =
  (* one tenant allowed 2 queued jobs, swamped by an instantaneous burst:
     everything past [max_inflight + bound] must be shed, and
     admitted - completed must balance *)
  let inst = Sys_.make ~cache_scale:16 Sys_.Charm Sys_.Amd_milan ~n_workers:8 () in
  let base = Server.default_config ~seed:5 in
  let tenant =
    {
      Server.name = "burst";
      weight = 1.0;
      slo_factor = 3.0;
      process = Arrivals.Open_loop { rate_per_s = 1e9 };
      jobs = 30;
      mix = [ (Serving.Job.Gups 512, 1) ];
      replicas = 1;
    }
  in
  let cfg =
    {
      base with
      Server.tenants = [ tenant ];
      admission = { Admission.max_queue_per_tenant = 2; max_global_queue = 64 };
      max_inflight = 1;
    }
  in
  let r = Server.run inst cfg in
  let tr = List.hd r.Server.tenant_reports in
  Alcotest.(check int) "submitted" 30 tr.Server.submitted;
  Alcotest.(check bool) "shed something" true (tr.Server.shed > 0);
  Alcotest.(check int) "admitted + shed = submitted" 30
    (tr.Server.admitted + tr.Server.shed);
  Alcotest.(check int) "admitted all complete" tr.Server.admitted
    tr.Server.completed;
  Alcotest.(check int) "shed counter in registry" tr.Server.shed
    (Metrics.counter_value r.Server.registry "serve.shed")

(* -- fair queue -------------------------------------------------------- *)

let test_fair_queue_weights () =
  (* equal per-job cost, weights 2:1 - over any long prefix the weight-2
     tenant must be served about twice as often *)
  let fq = Fair_queue.create () in
  Fair_queue.add_tenant fq ~tenant:0 ~weight:2.0;
  Fair_queue.add_tenant fq ~tenant:1 ~weight:1.0;
  for i = 0 to 29 do
    Fair_queue.push fq ~tenant:0 ~cost:100.0 i;
    Fair_queue.push fq ~tenant:1 ~cost:100.0 i
  done;
  let served = [| 0; 0 |] in
  for _ = 1 to 18 do
    match Fair_queue.pop fq with
    | Some (t, _) -> served.(t) <- served.(t) + 1
    | None -> Alcotest.fail "queue ran dry"
  done;
  Alcotest.(check int) "weight-2 tenant got 2/3 of service" 12 served.(0);
  Alcotest.(check int) "weight-1 tenant got 1/3 of service" 6 served.(1)

let test_fair_queue_fifo_within_tenant () =
  let fq = Fair_queue.create () in
  Fair_queue.add_tenant fq ~tenant:0 ~weight:1.0;
  List.iter (fun i -> Fair_queue.push fq ~tenant:0 ~cost:50.0 i) [ 1; 2; 3 ];
  let order = List.init 3 (fun _ -> Option.get (Fair_queue.pop fq) |> snd) in
  Alcotest.(check (list int)) "FIFO per tenant" [ 1; 2; 3 ] order;
  Alcotest.(check (option (pair int int))) "empty" None (Fair_queue.pop fq)

(* -- metrics ----------------------------------------------------------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  Metrics.incr m "a.count";
  Metrics.incr m ~by:4 "a.count";
  Metrics.set_gauge m "b.gauge" 2.5;
  Metrics.observe m "c.hist" 10.0;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value m "a.count");
  Alcotest.(check (float 0.0)) "gauge" 2.5 (Metrics.gauge_value m "b.gauge");
  Alcotest.(check int) "histogram" 1 (Histogram.count (Metrics.histogram m "c.hist"));
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let json = Metrics.to_json m in
  Alcotest.(check bool) "counters in json" true (contains json "\"a.count\":5");
  Alcotest.(check bool) "gauges in json" true (contains json "\"b.gauge\":2.5")

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a ~by:3 "jobs";
  Metrics.incr b ~by:4 "jobs";
  Metrics.incr b "only.b";
  Metrics.set_gauge a "depth" 1.0;
  Metrics.set_gauge b "depth" 7.0;
  Metrics.observe a "lat" 100.0;
  Metrics.observe b "lat" 1000.0;
  Metrics.observe b "lat" 2000.0;
  Metrics.merge a b;
  Alcotest.(check int) "counters add" 7 (Metrics.counter_value a "jobs");
  Alcotest.(check int) "src-only counters appear" 1
    (Metrics.counter_value a "only.b");
  Alcotest.(check (float 0.0)) "gauges take src (last write wins)" 7.0
    (Metrics.gauge_value a "depth");
  Alcotest.(check int) "histograms merge samples" 3
    (Histogram.count (Metrics.histogram a "lat"));
  Alcotest.(check int) "src untouched" 4 (Metrics.counter_value b "jobs");
  Alcotest.(check int) "src histogram untouched" 2
    (Histogram.count (Metrics.histogram b "lat"))

let test_fair_queue_peek () =
  let fq = Fair_queue.create () in
  Fair_queue.add_tenant fq ~tenant:0 ~weight:1.0;
  Fair_queue.add_tenant fq ~tenant:1 ~weight:2.0;
  Alcotest.(check bool) "peek on empty" true (Fair_queue.peek fq = None);
  List.iter
    (fun i -> Fair_queue.push fq ~tenant:(i mod 2) ~cost:50.0 i)
    [ 0; 1; 2; 3; 4; 5 ];
  for _ = 1 to 6 do
    let p1 = Fair_queue.peek fq in
    let p2 = Fair_queue.peek fq in
    Alcotest.(check bool) "peek is stable" true (p1 = p2);
    Alcotest.(check bool) "peek matches pop" true (p1 = Fair_queue.pop fq)
  done;
  Alcotest.(check bool) "drained" true (Fair_queue.peek fq = None)

(* -- end-to-end determinism -------------------------------------------- *)

let run_default seed =
  let inst = Sys_.make ~cache_scale:16 Sys_.Charm Sys_.Amd_milan ~n_workers:16 () in
  let base = Server.default_config ~seed in
  let cfg =
    {
      base with
      Server.tenants =
        List.map (fun t -> { t with Server.jobs = 10 }) base.Server.tenants;
    }
  in
  Server.report_to_json (Server.run inst cfg)

let test_server_deterministic () =
  let a = run_default 42 and b = run_default 42 and c = run_default 43 in
  Alcotest.(check string) "same seed, identical report" a b;
  Alcotest.(check bool) "different seed, different report" true (a <> c);
  match Engine.Json.parse a with
  | Ok doc ->
      Alcotest.(check bool) "report has tenants" true
        (Option.is_some (Engine.Json.member "tenants" doc))
  | Error e -> Alcotest.failf "report is not valid JSON: %s" e

(* -- CLI spec parsing -------------------------------------------------- *)

module Spec = Serving.Spec

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_err name result frag =
  match result with
  | Ok _ -> Alcotest.failf "%s: accepted a malformed spec" name
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" name msg frag)
        true (contains msg frag)

let test_tenant_spec () =
  (match Spec.parse_tenant "gold:2:bfs+tpch:3" with
  | Ok (name, weight, mix) ->
      Alcotest.(check string) "name" "gold" name;
      Alcotest.(check (float 0.0)) "weight" 2.0 weight;
      Alcotest.(check int) "mix size" 2 (List.length mix);
      Alcotest.(check bool) "tpch:3 resolved" true
        (List.mem_assoc (Serving.Job.Tpch 3) mix)
  | Error msg -> Alcotest.failf "rejected valid tenant spec: %s" msg);
  check_err "empty" (Spec.parse_tenant "") "want NAME:WEIGHT:KIND";
  check_err "no kinds" (Spec.parse_tenant "gold") "want NAME:WEIGHT:KIND";
  check_err "bad weight" (Spec.parse_tenant "gold:x:bfs") "weight";
  check_err "negative weight" (Spec.parse_tenant "gold:-1:bfs") "positive";
  check_err "nan weight" (Spec.parse_tenant "gold:nan:bfs") "positive";
  check_err "empty kinds" (Spec.parse_tenant "gold:2:") "job-kind list";
  check_err "dangling plus" (Spec.parse_tenant "gold:2:bfs+") "job-kind list";
  check_err "unknown kind" (Spec.parse_tenant "gold:2:bfs+frob") "frob"

let test_shard_machines_spec () =
  let machines = [ ("amd", `A); ("intel", `I) ] in
  (match Spec.parse_shard_machines ~machines "amd, intel,amd" with
  | Ok ms -> Alcotest.(check int) "three shards" 3 (List.length ms)
  | Error msg -> Alcotest.failf "rejected valid machine list: %s" msg);
  check_err "empty list" (Spec.parse_shard_machines ~machines "") "empty";
  check_err "unknown machine"
    (Spec.parse_shard_machines ~machines "amd,xeon")
    "xeon"

let test_shard_fault_spec () =
  (match Spec.parse_shard_fault "2:membw@1000:0.5" with
  | Ok (shard, fault) ->
      Alcotest.(check int) "shard" 2 shard;
      Alcotest.(check string) "fault" "membw@1000:0.5" fault
  | Error msg -> Alcotest.failf "rejected valid shard fault: %s" msg);
  check_err "no colon" (Spec.parse_shard_fault "membw") "want SHARD:SPEC";
  check_err "empty shard" (Spec.parse_shard_fault ":membw") "want SHARD:SPEC";
  check_err "non-integer shard" (Spec.parse_shard_fault "x:membw") "integer";
  check_err "negative shard" (Spec.parse_shard_fault "-1:membw") ">= 0"

let suite =
  [
    Alcotest.test_case "poisson deterministic" `Quick test_poisson_deterministic;
    Alcotest.test_case "poisson shape" `Quick test_poisson_shape;
    Alcotest.test_case "nan rate rejected" `Quick test_nan_rate_rejected;
    Alcotest.test_case "bad slo factor rejected" `Quick test_bad_slo_rejected;
    Alcotest.test_case "negative think time rejected" `Quick
      test_negative_think_rejected;
    Alcotest.test_case "no closed-loop clients rejected" `Quick
      test_no_closed_loop_clients_rejected;
    Alcotest.test_case "zero queue bound rejected" `Quick
      test_zero_queue_bound_rejected;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram p999" `Quick test_histogram_p999;
    Alcotest.test_case "histogram absurd samples" `Quick
      test_histogram_absurd_samples;
    Alcotest.test_case "admission scaling" `Quick test_admission_scaling;
    Alcotest.test_case "admission bounds" `Quick test_admission_bounds;
    Alcotest.test_case "server sheds at bound" `Quick test_server_sheds_at_bound;
    Alcotest.test_case "fair queue weights" `Quick test_fair_queue_weights;
    Alcotest.test_case "fair queue fifo" `Quick test_fair_queue_fifo_within_tenant;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
    Alcotest.test_case "fair queue peek" `Quick test_fair_queue_peek;
    Alcotest.test_case "server deterministic" `Quick test_server_deterministic;
    Alcotest.test_case "tenant spec parsing" `Quick test_tenant_spec;
    Alcotest.test_case "shard machine list parsing" `Quick
      test_shard_machines_spec;
    Alcotest.test_case "shard fault parsing" `Quick test_shard_fault_spec;
  ]
