(* serve-mix: one AMD Milan machine with 16 CHARM workers serving the
   default three tenants (graph BFS/PageRank, OLAP TPC-H, OLTP YCSB+GUPS)
   with compute-energy metering on and a power cap below the uncapped
   draw, so the power-cap controller actuates.  It has the most quanta
   per event of the three workloads, so the CHARM runtime hooks and the
   serving dispatch carry their largest share of host time here, and it
   is the only workload with the energy and power-cap path on.

   Arrivals are open loop: per tenant a Poisson process conditioned on
   [jobs_per_tenant] arrivals in a fixed window (sorted uniform draws),
   generated here from the seed and fed epoch by epoch through
   [Session.submit] and [Session.drain].  Each tenant's jobs follow its
   mix weights exactly, in seeded order.  Fixing the offered load and
   the kind counts keeps seeds from moving the figures by the several
   percent an unconditioned draw does: job kinds differ in host cost per
   simulated event, and the total span of 400 Poisson arrivals varies by
   about 5%.  The offered rate sits below the shedding knee, so
   no job is shed; an op is a job, and a shed or unfinished job fails. *)

module Sys_ = Harness.Systems
module Server = Serving.Server
module Session = Serving.Server.Session
module Histogram = Serving.Histogram
module Metrics = Serving.Metrics
module Span = Perfbench_lib.Span

let workers = 16
let cache_scale = 16
let rate_per_tenant = 4_000.0
let jobs_per_tenant = 400
let epoch_ns = 250_000.0

(* the uncapped draw of this mix is about 7.7 mW *)
let power_cap_mw = 6.0

type arrival = { at_ns : float; tenant : int; kind : Serving.Job.kind; job_seed : int }

(* Arrivals per tenant from the seed alone, merged by time. *)
let arrivals ~seed (tenants : Server.tenant_config list) =
  let window_ns = float_of_int jobs_per_tenant /. rate_per_tenant *. 1e9 in
  let per_tenant =
    List.mapi
      (fun i (t : Server.tenant_config) ->
        let rng = Engine.Rng.create ((seed * 1009) + i) in
        let times = Array.init jobs_per_tenant (fun _ -> Engine.Rng.float rng window_ns) in
        Array.sort compare times;
        let kinds =
          let cycle =
            Array.of_list (List.concat_map (fun (k, w) -> List.init w (fun _ -> k)) t.Server.mix)
          in
          Array.init jobs_per_tenant (fun j -> cycle.(j mod Array.length cycle))
        in
        Engine.Rng.shuffle rng kinds;
        Array.mapi
          (fun j at_ns ->
            { at_ns; tenant = i; kind = kinds.(j); job_seed = Engine.Rng.int rng 0x3FFFFFFF })
          times)
      tenants
  in
  let all = Array.concat per_tenant in
  Array.stable_sort (fun a b -> compare a.at_ns b.at_ns) all;
  all

let config ~seed ~check =
  let base = Server.default_config ~seed in
  {
    base with
    Server.tenants =
      List.map (fun t -> { t with Server.jobs = jobs_per_tenant }) base.Server.tenants;
    check;
  }

let prepare ~seed ~check tracer =
  let inst =
    Span.with_ tracer "harness.make" (fun () ->
        Sys_.make ~cache_scale
          ~charm_config:{ Charm.Config.default with Charm.Config.power_cap_mw }
          Sys_.Charm Sys_.Amd_milan ~n_workers:workers ())
  in
  let sched = inst.Sys_.env.Workloads.Exec_env.sched in
  Engine.Sched.set_energy sched true;
  Pass.trace_hooks tracer sched;
  let marks = Pass.marks ?tracer ~stride:500 sched in
  let cfg = config ~seed ~check in
  let sess = Span.with_ tracer "workloads.dataset" (fun () -> Session.create inst cfg) in
  let arr = arrivals ~seed cfg.Server.tenants in
  fun () ->
    let report, run_s, alloc_words, probe_ns =
      Pass.timed ~marks (fun () ->
          let n = Array.length arr in
          let cursor = ref 0 and t0 = ref 0.0 and final = ref false in
          while not !final do
            let t1 = !t0 +. epoch_ns in
            while !cursor < n && arr.(!cursor).at_ns < t1 do
              let a = arr.(!cursor) in
              ignore
                (Span.with_ tracer "serve.submit" (fun () ->
                     Session.submit sess ~tenant:a.tenant ~job_id:!cursor
                       ~arrival:a.at_ns ~kind:a.kind ~job_seed:a.job_seed)
                  : Serving.Admission.decision);
              incr cursor
            done;
            final := !cursor >= n;
            let horizon = if !final then infinity else t1 in
            Span.with_ tracer "serve.drain" (fun () ->
                Session.drain sess ~horizon ~kick_ns:!t0);
            t0 := t1
          done;
          Span.with_ tracer "serve.finish" (fun () -> Session.finish sess))
    in
    let machine = inst.Sys_.machine in
    let events = Pass.engine_events machine in
    let latency = Metrics.histogram report.Server.registry "serve.latency_ns" in
    let queue_wait = Histogram.create () in
    List.iter
      (fun (tr : Server.tenant_report) -> Histogram.merge queue_wait tr.Server.queue_wait)
      report.Server.tenant_reports;
    let sum f = List.fold_left (fun acc tr -> acc + f tr) 0 report.Server.tenant_reports in
    let submitted = sum (fun tr -> tr.Server.submitted)
    and admitted = sum (fun tr -> tr.Server.admitted)
    and shed = sum (fun tr -> tr.Server.shed)
    and completed = sum (fun tr -> tr.Server.completed)
    and violations = sum (fun tr -> tr.Server.slo_violations) in
    let errors =
      Span.with_ tracer "bench.check" (fun () ->
          List.concat_map
            (fun (tr : Server.tenant_report) ->
              (if tr.Server.submitted = tr.Server.admitted + tr.Server.shed then []
               else [ Printf.sprintf "tenant %s: submitted <> admitted + shed" tr.Server.tenant ])
              @
              if tr.Server.completed = tr.Server.admitted then []
              else [ Printf.sprintf "tenant %s: completed <> admitted" tr.Server.tenant ])
            report.Server.tenant_reports
          @
          if submitted = Array.length arr then []
          else [ Printf.sprintf "%d jobs offered, %d submitted" (Array.length arr) submitted ])
    in
    {
      Pass.events;
      run_s;
      alloc_words;
      probe_ns;
      makespan_ns = report.Server.makespan_ns;
      attempted = Array.length arr;
      failed = Array.length arr - completed;
      good = completed - violations;
      energy_pj = Chipsim.Machine.combined_energy_pj machine;
      latency = Some latency;
      queue_wait = Some queue_wait;
      fingerprint =
        Perfbench_lib.Stats.fingerprint ~events ~makespan_ns:report.Server.makespan_ns
          ~outputs:(Serving.Metrics.json_of_histogram latency ^ Serving.Metrics.json_of_histogram queue_wait);
      counts =
        Pass.machine_counts [ report.Server.stats ]
        @ Pass.runtime_counts (Option.get inst.Sys_.charm)
        @ [
            ("serve.admitted", float_of_int admitted);
            ("serve.shed", float_of_int shed);
          ];
      errors;
    }
