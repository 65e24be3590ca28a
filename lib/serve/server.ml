module Sched = Engine.Sched
module Future = Engine.Future
module Systems = Harness.Systems
module Machine = Chipsim.Machine
module Pmu = Chipsim.Pmu

type tenant_config = {
  name : string;
  weight : float;
  slo_factor : float;
  process : Arrivals.process;
  jobs : int;
  mix : (Job.kind * int) list;
  replicas : int;
      (* 1 = plain execution; k > 1 runs every job k times on distinct
         chiplets and votes on the result tokens (critical tenants) *)
}

type config = {
  tenants : tenant_config list;
  admission : Admission.config;
  max_inflight : int;
  seed : int;
  data : Job.data_config;
  trace : Engine.Trace.t option;
  on_complete :
    (tenant:string -> kind:Job.kind -> submit_ns:float -> finish_ns:float -> unit)
      option;
  check : bool;
}

let default_config ~seed =
  let open_loop rate = Arrivals.Open_loop { rate_per_s = rate } in
  {
    tenants =
      [
        {
          name = "graph";
          weight = 2.0;
          slo_factor = 3.0;
          process = open_loop 5000.0;
          jobs = 40;
          mix = [ (Job.Bfs, 2); (Job.Pagerank, 1) ];
          replicas = 1;
        };
        {
          name = "olap";
          weight = 1.0;
          slo_factor = 3.0;
          process = open_loop 5000.0;
          jobs = 40;
          mix = [ (Job.Tpch 1, 1); (Job.Tpch 3, 1); (Job.Tpch 6, 1) ];
          replicas = 1;
        };
        {
          name = "oltp";
          weight = 1.0;
          slo_factor = 3.0;
          process = open_loop 5000.0;
          jobs = 40;
          mix = [ (Job.Ycsb_batch 256, 2); (Job.Gups 4096, 1) ];
          replicas = 1;
        };
      ];
    admission = Admission.default;
    max_inflight = 4;
    seed;
    data = Job.default_data_config;
    trace = None;
    on_complete = None;
    check = false;
  }

let tenant_rngs ~seed idx =
  let base = (seed * 31) + (2 * idx) in
  (Engine.Rng.create base, Engine.Rng.create (base + 1))

type tenant_report = {
  tenant : string;
  submitted : int;
  admitted : int;
  shed : int;
  completed : int;
  relocated_out : int;
  relocated_in : int;
  slo_ns : float;
  slo_violations : int;
  latency : Histogram.t;
  queue_wait : Histogram.t;
  energy_uj : float;
  replicas : int;
  divergences : int;
}

type report = {
  makespan_ns : float;
  tenant_reports : tenant_report list;
  registry : Metrics.t;
  stats : Engine.Stats.report;
}

(* per-tenant mutable serving state *)
type tenant_state = {
  cfg_t : tenant_config;
  idx : int;
  mix_rng : Engine.Rng.t;  (** kind choice + per-job seeds *)
  arrival_rng : Engine.Rng.t;
  mean_cost : float;  (** weighted mean {!Job.cost_estimate} of the mix *)
  slo : float;
  mutable submitted : int;
  mutable admitted : int;
  mutable shed : int;
  mutable completed : int;
  mutable relocated_out : int;
  mutable relocated_in : int;
  mutable slo_violations : int;
  lat_hist : Histogram.t;
  wait_hist : Histogram.t;
  mutable energy_pj : float;
      (** machine energy attributed to this tenant (completion-time delta
          attribution; see [complete]) *)
  mutable divergences : int;  (** replica groups whose tokens disagreed *)
}

type pending = {
  id : int;  (** submission order, unique across tenants *)
  tenant : int;
  kind : Job.kind;
  job_seed : int;
  submit_ns : float;
  done_f : float Future.t;  (** fulfilled with the completion timestamp *)
}

type relocatable = {
  r_id : int;
  r_tenant : int;
  r_kind : Job.kind;
  r_seed : int;
  r_submit_ns : float;
}

let validate cfg =
  if cfg.tenants = [] then invalid_arg "Server.run: no tenants";
  if cfg.max_inflight < 1 then invalid_arg "Server.run: max_inflight < 1";
  if cfg.admission.Admission.max_queue_per_tenant < 1
     || cfg.admission.Admission.max_global_queue < 1
  then invalid_arg "Server.run: admission queue bounds must be >= 1";
  List.iter
    (fun t ->
      if t.weight <= 0.0 then invalid_arg "Server.run: tenant weight <= 0";
      if t.jobs <= 0 then invalid_arg "Server.run: tenant jobs <= 0";
      if t.mix = [] then invalid_arg "Server.run: empty job mix";
      if List.exists (fun (_, w) -> w <= 0) t.mix then
        invalid_arg "Server.run: non-positive mix weight";
      if t.replicas < 1 then invalid_arg "Server.run: tenant replicas < 1";
      (* comparisons are written so that NaN fails them *)
      if not (t.slo_factor > 0.0 && Float.is_finite t.slo_factor) then
        invalid_arg "Server.run: tenant slo_factor must be finite and > 0";
      match t.process with
      | Arrivals.Open_loop { rate_per_s } ->
          if not (rate_per_s > 0.0 && Float.is_finite rate_per_s) then
            invalid_arg "Server.run: open-loop rate must be finite and > 0"
      | Arrivals.Closed_loop { clients; think_ns } ->
          if clients < 1 then invalid_arg "Server.run: closed-loop clients < 1";
          if not (think_ns >= 0.0 && Float.is_finite think_ns) then
            invalid_arg "Server.run: closed-loop think time must be finite and >= 0")
    cfg.tenants

(* End-of-run conservation: arrivals all accounted, every admitted job
   completed or relocated away (the scheduler drained), histogram sample
   counts match the jobs that produced them, and the registry's global
   counters agree with the per-tenant ledgers. *)
let check_report ~registry ~fq tenants =
  let fail = Chipsim.Invariant.fail in
  Array.iter
    (fun st ->
      let name = st.cfg_t.name in
      if st.submitted <> st.admitted + st.shed then
        fail "serve: tenant %s saw %d arrivals but admitted %d + shed %d" name
          st.submitted st.admitted st.shed;
      if st.completed + st.relocated_out <> st.admitted then
        fail "serve: tenant %s admitted %d jobs but completed %d + relocated %d"
          name st.admitted st.completed st.relocated_out;
      if Histogram.count st.lat_hist <> st.completed then
        fail "serve: tenant %s recorded %d latency samples for %d completions"
          name (Histogram.count st.lat_hist) st.completed;
      if Histogram.count st.wait_hist <> st.admitted - st.relocated_out then
        fail "serve: tenant %s recorded %d queue-wait samples for %d dispatches"
          name (Histogram.count st.wait_hist) (st.admitted - st.relocated_out);
      if st.slo_violations > st.completed then
        fail "serve: tenant %s counts %d SLO violations over %d completions"
          name st.slo_violations st.completed)
    tenants;
  if Fair_queue.length fq <> 0 then
    fail "serve: %d jobs still queued after the run drained"
      (Fair_queue.length fq);
  let sum f = Array.fold_left (fun acc st -> acc + f st) 0 tenants in
  let counter = Metrics.counter_value registry in
  if counter "serve.submitted" <> sum (fun st -> st.submitted) then
    fail "serve: registry counts %d submissions, tenants %d"
      (counter "serve.submitted")
      (sum (fun st -> st.submitted));
  if counter "serve.admitted" <> sum (fun st -> st.admitted) then
    fail "serve: registry counts %d admissions, tenants %d"
      (counter "serve.admitted")
      (sum (fun st -> st.admitted));
  if counter "serve.shed" <> sum (fun st -> st.shed) then
    fail "serve: registry counts %d sheds, tenants %d" (counter "serve.shed")
      (sum (fun st -> st.shed));
  if counter "serve.completed" <> sum (fun st -> st.completed) then
    fail "serve: registry counts %d completions, tenants %d"
      (counter "serve.completed")
      (sum (fun st -> st.completed));
  if counter "serve.relocated_out" <> sum (fun st -> st.relocated_out) then
    fail "serve: registry counts %d relocations out, tenants %d"
      (counter "serve.relocated_out")
      (sum (fun st -> st.relocated_out))

(* Energy conservation: tenant attributions plus the overhead residual
   must reproduce the machine's combined (memory + compute) energy growth
   exactly — delta attribution guarantees it up to float re-association,
   so the tolerance is 1e-6 relative, not a loose band. *)
let check_energy ~machine ~base_energy_pj ~overhead_pj tenants =
  let fail = Chipsim.Invariant.fail in
  let attributed =
    Array.fold_left (fun acc st -> acc +. st.energy_pj) 0.0 tenants
  in
  let growth = Machine.combined_energy_pj machine -. base_energy_pj in
  let tol = 1e-6 *. Float.max 1.0 growth in
  if Float.abs (attributed +. overhead_pj -. growth) > tol then
    fail
      "serve: %.1f pJ attributed + %.1f pJ overhead but the machine grew \
       %.1f pJ"
      attributed overhead_pj growth;
  Array.iter
    (fun st ->
      if (not (Float.is_finite st.energy_pj)) || st.energy_pj < 0.0 then
        fail "serve: tenant %s energy meter reads %g pJ" st.cfg_t.name
          st.energy_pj)
    tenants

(* -- serving session ----------------------------------------------------

   All of the serving loop's mutable state, so a run can be driven two
   ways: [run] drives arrivals in-sim to completion on one machine, and
   the fleet tier drives N sessions epoch-by-epoch — submitting routed
   jobs from outside, draining each shard up to a dispatch horizon, and
   pulling queued jobs back out when a shard degrades. *)
type session = {
  inst : Systems.instance;
  cfg : config;
  sched : Sched.t;
  env : Workloads.Exec_env.t;
  data : Job.data;
  costs : (Job.kind * float) array;
      (** every kind of the tenant mixes with its {!Job.cost_estimate},
          priced once *)
  registry : Metrics.t;
  tenants : tenant_state array;
  fq : pending Fair_queue.t;
  inflight : int ref;
  next_job_id : int ref;
  base_hooks : Sched.hooks;
  mutable horizon : float;
      (** dispatch horizon: queued jobs whose (clamped) start time would
          reach this are left queued — epoch-driven callers use it to
          stop dispatch at the epoch boundary *)
  mutable makespan : float;
  base_energy_pj : float;
      (** machine combined energy when the session started (a reused
          machine arrives with history; only growth is attributable) *)
  mutable last_energy_pj : float;
      (** high-water mark of attributed energy: the delta since the last
          completion is charged to the tenant completing now, the
          residual past the final completion lands in the overhead
          bucket — so tenant + overhead = machine growth by
          construction *)
  mutable corruptions_consumed : int;
      (** armed corruption seeds actually consumed by replica tokens *)
}

(* the cost of a kind: read from the session's table, priced on the spot
   (and checked to have its dataset) only for a kind outside the mixes *)
let cost_of costs data kind =
  let rec find i =
    if i = Array.length costs then Job.cost_estimate data kind
    else
      let k, c = costs.(i) in
      if k = kind then c else find (i + 1)
  in
  find 0

let create ?share inst cfg =
  validate cfg;
  let env = inst.Systems.env in
  let sched = env.Workloads.Exec_env.sched in
  if cfg.check then Sched.set_check sched true;
  let registry = Metrics.create () in
  Metrics.set_gauge registry "serve.effective_capacity"
    (Chipsim.Modifiers.online_capacity (Machine.modifiers inst.Systems.machine));
  let kinds = List.sort_uniq compare (List.concat_map (fun t -> List.map fst t.mix) cfg.tenants) in
  let data = Job.prepare ?share:(Option.map (fun s -> s.data) share) env cfg.data kinds in
  let costs = Array.of_list (List.map (fun k -> (k, Job.cost_estimate data k)) kinds) in
  let tenants =
    List.mapi
      (fun idx t ->
        let mean_cost =
          let num, den =
            List.fold_left
              (fun (num, den) (k, w) ->
                (num +. (float_of_int w *. cost_of costs data k), den + w))
              (0.0, 0) t.mix
          in
          num /. float_of_int den
        in
        let mix_rng, arrival_rng = tenant_rngs ~seed:cfg.seed idx in
        {
          cfg_t = t;
          idx;
          mix_rng;
          arrival_rng;
          mean_cost;
          slo = t.slo_factor *. mean_cost;
          submitted = 0;
          admitted = 0;
          shed = 0;
          completed = 0;
          relocated_out = 0;
          relocated_in = 0;
          slo_violations = 0;
          lat_hist = Metrics.histogram registry ("tenant." ^ t.name ^ ".latency_ns");
          wait_hist = Metrics.histogram registry ("tenant." ^ t.name ^ ".queue_wait_ns");
          energy_pj = 0.0;
          divergences = 0;
        })
      cfg.tenants
    |> Array.of_list
  in
  let fq = Fair_queue.create () in
  Array.iter (fun st -> Fair_queue.add_tenant fq ~tenant:st.idx ~weight:st.cfg_t.weight) tenants;

  (* trace sink: under CHARM wire every layer (scheduler, policy,
     controller, health monitor); baselines get the scheduler events *)
  (match cfg.trace with
  | Some tr -> (
      match inst.Systems.charm with
      | Some rt -> Charm.Runtime.attach_trace rt tr
      | None -> Sched.set_trace sched (Some tr))
  | None -> ());

  (* observability hooks: count scheduler quanta and, when tracing, sample
     the machine-wide fill-class counters once per interval of virtual
     time — the Fig. 3 time series the policy consumes — around the
     placement policy's own hooks *)
  let base_hooks = Sched.hooks sched in
  let counter_interval_ns = 50_000.0 in
  let last_fills = ref Pmu.zero_fill_classes in
  let last_fills_ns = ref 0.0 in
  let quanta = Metrics.counter registry "sched.quanta" in
  Sched.set_hooks sched
    {
      base_hooks with
      Sched.on_quantum_end =
        (fun s w ->
          Metrics.bump quanta;
          (match cfg.trace with
          | Some tr ->
              let now = Sched.worker_clock s w in
              if now -. !last_fills_ns >= counter_interval_ns then begin
                let fills = Pmu.fill_classes (Machine.pmu inst.Systems.machine) in
                let d = Pmu.fill_classes_delta ~before:!last_fills ~after:fills in
                Engine.Trace.counter tr ~name:"fills" ~at_ns:now
                  ~series:
                    [
                      ("local", float_of_int d.Pmu.fc_local);
                      ("remote_chiplet", float_of_int d.Pmu.fc_remote_chiplet);
                      ("remote_numa", float_of_int d.Pmu.fc_remote_numa);
                      ("dram", float_of_int d.Pmu.fc_dram);
                    ];
                last_fills := fills;
                last_fills_ns := now
              end
          | None -> ());
          base_hooks.Sched.on_quantum_end s w);
    };
  {
    inst;
    cfg;
    sched;
    env;
    data;
    costs;
    registry;
    tenants;
    fq;
    inflight = ref 0;
    next_job_id = ref 0;
    base_hooks;
    horizon = infinity;
    makespan = 0.0;
    base_energy_pj = Machine.combined_energy_pj inst.Systems.machine;
    last_energy_pj = Machine.combined_energy_pj inst.Systems.machine;
    corruptions_consumed = 0;
  }

let trace_job sess ~phase ~tenant ~kind ~job_id ~at_ns =
  match sess.cfg.trace with
  | Some tr ->
      Engine.Trace.job tr ~phase ~tenant ~kind:(Job.kind_name kind) ~job_id ~at_ns
  | None -> ()

(* dispatcher: drain the fair queue into at most [max_inflight]
   concurrently running jobs, each a future-dispatched scheduler task.
   Stalls (without reordering — [peek], not pop-and-requeue, which would
   perturb the fair queue's virtual-time tags) when the head job cannot
   start before the dispatch horizon. *)
let rec pump sess ctx =
  if !(sess.inflight) < sess.cfg.max_inflight then
    match Fair_queue.peek sess.fq with
    | None -> ()
    | Some (tidx, p) ->
        (* a job cannot start before it arrived: clamp the dispatch time
           so a thief worker with a lagging clock cannot run it "in the
           past" and produce negative latencies *)
        let start_at = Float.max (Sched.Ctx.now ctx) p.submit_ns in
        if start_at >= sess.horizon then ()
        else begin
          ignore (Fair_queue.pop sess.fq : (int * pending) option);
          let st = sess.tenants.(tidx) in
          incr sess.inflight;
          Metrics.set_gauge sess.registry "serve.inflight"
            (float_of_int !(sess.inflight));
          Histogram.observe st.wait_hist (start_at -. p.submit_ns);
          trace_job sess ~phase:Engine.Trace.Start ~tenant:st.cfg_t.name
            ~kind:p.kind ~job_id:p.id ~at_ns:start_at;
          if st.cfg_t.replicas <= 1 then
            ignore
              (Future.spawn_at ctx ~at:start_at (fun ctx' ->
                   let items = Job.run ctx' sess.data ~seed:p.job_seed p.kind in
                   complete sess ctx' st p items)
                : unit Future.t)
          else dispatch_replicated sess ctx st p ~start_at;
          pump sess ctx
        end

(* Replicated dispatch: the group occupies ONE inflight slot and
   completes once, when its last replica finishes — admission, fair
   queueing and latency see one job, redundancy is purely an execution
   concern.  Replicas pin to distinct chiplets ({!Replica.placement}), so
   a per-chiplet fault or a power-throttled hot chiplet degrades at most
   one vote. *)
and dispatch_replicated sess ctx st p ~start_at =
  let sched = Sched.Ctx.sched ctx in
  let topo = Machine.topology sess.inst.Systems.machine in
  let group =
    match Job.worker_chiplets sess.data ctx with
    | Some chiplets ->
        Replica.placement ~chiplets ~job_id:p.id ~replicas:st.cfg_t.replicas
    | None -> [| 0 |]
  in
  let k = Array.length group in
  let tokens = Array.make k 0L in
  let primary_items = ref 0 in
  let remaining = ref k in
  (* one armed corruption poisons one group; the victim replica index is
     derived from the seed, not from execution order, so a given fault
     spec always corrupts the same replica — tests and the planted-bug
     gate rely on [corrupt:SEED] with [SEED mod k = 0] hitting the
     primary *)
  let corrupt_at =
    match
      Chipsim.Modifiers.take_corruption
        (Machine.modifiers sess.inst.Systems.machine)
    with
    | Some seed ->
        sess.corruptions_consumed <- sess.corruptions_consumed + 1;
        Metrics.incr sess.registry "serve.replica.corruptions";
        Some (abs seed mod k, seed)
    | None -> None
  in
  let corrupted = match corrupt_at with Some _ -> 1 | None -> 0 in
  Metrics.incr sess.registry "serve.replica.groups";
  Array.iteri
    (fun r chiplet ->
      let worker = Replica.worker_on sched topo ~chiplet in
      ignore
        (Future.spawn_at ctx ?worker ~at:start_at (fun ctx' ->
             let items =
               Job.run_replica ctx' sess.data ~seed:p.job_seed ~replica:r p.kind
             in
             (* metrics count the primary's work; redundant items are
                overhead, not service *)
             if r = 0 then primary_items := items;
             let tok =
               Replica.token ~job_seed:p.job_seed ~kind:(Job.kind_name p.kind)
             in
             let tok =
               match corrupt_at with
               | Some (victim, seed) when victim = r -> Replica.corrupt tok ~seed
               | _ -> tok
             in
             tokens.(r) <- tok;
             decr remaining;
             if !remaining = 0 then
               finish_group sess ctx' st p ~tokens ~corrupted
                 ~items:!primary_items)
          : unit Future.t))
    group

and finish_group sess ctx st p ~tokens ~corrupted ~items =
  let voted = Replica.vote tokens in
  if not (Replica.unanimous tokens) then begin
    st.divergences <- st.divergences + 1;
    Metrics.incr sess.registry "serve.replica.divergent";
    if Int64.equal voted (Replica.majority tokens) then
      Metrics.incr sess.registry "serve.replica.masked";
    match sess.cfg.trace with
    | Some tr ->
        Engine.Trace.instant tr
          ~name:
            (Printf.sprintf
               "replica divergence: tenant %s job %d (%d of %d corrupted)"
               st.cfg_t.name p.id corrupted (Array.length tokens))
          ~at_ns:(Sched.Ctx.now ctx)
    | None -> ()
  end;
  if sess.cfg.check then begin
    (* replica-agreement invariants (Check.Invariants): the voted result
       must match the honest plurality — the vote-skip plant trips this
       whenever replica 0 holds the poisoned minority token — and
       divergence is impossible without an injected corruption *)
    if not (Int64.equal voted (Replica.majority tokens)) then
      Chipsim.Invariant.fail
        "serve: tenant %s job %d voted token %Lx but the plurality is %Lx"
        st.cfg_t.name p.id voted (Replica.majority tokens);
    if corrupted = 0 && not (Replica.unanimous tokens) then
      Chipsim.Invariant.fail
        "serve: tenant %s job %d replicas diverged without injected corruption"
        st.cfg_t.name p.id
  end;
  complete sess ctx st p items

and complete sess ctx st p items =
  let fin = Sched.Ctx.now ctx in
  (* completion-time delta attribution: whatever the machine's combined
     energy meter grew since the last completion is charged to the tenant
     completing now.  Coarse (concurrent jobs blur into each other) but
     exactly conservative: tenant shares + the end-of-run overhead
     residual sum to the machine's growth by construction *)
  let e = Machine.combined_energy_pj sess.inst.Systems.machine in
  st.energy_pj <- st.energy_pj +. (e -. sess.last_energy_pj);
  sess.last_energy_pj <- e;
  let latency = fin -. p.submit_ns in
  trace_job sess ~phase:Engine.Trace.Finish ~tenant:st.cfg_t.name ~kind:p.kind
    ~job_id:p.id ~at_ns:fin;
  decr sess.inflight;
  st.completed <- st.completed + 1;
  Histogram.observe st.lat_hist latency;
  Metrics.observe sess.registry "serve.latency_ns" latency;
  Metrics.incr sess.registry "serve.completed";
  Metrics.incr sess.registry ~by:items "serve.work_items";
  Metrics.incr sess.registry ("serve.jobs." ^ Job.kind_name p.kind);
  if latency > st.slo then begin
    st.slo_violations <- st.slo_violations + 1;
    Metrics.incr sess.registry ("tenant." ^ st.cfg_t.name ^ ".slo_violations")
  end;
  (match sess.cfg.on_complete with
  | Some f ->
      f ~tenant:st.cfg_t.name ~kind:p.kind ~submit_ns:p.submit_ns ~finish_ns:fin
  | None -> ());
  Future.fulfill ctx p.done_f fin;
  pump sess ctx

(* Shared admission path.  [job_seed] individualises the job; the in-sim
   driver draws it from the tenant's mix RNG only on admission (shed
   arrivals must not consume draws), external drivers supply it. *)
let admit_or_shed sess st ~job_id ~arrival ~kind ~seed_of =
  let now = arrival in
  (* priced first: a kind whose dataset this session did not build fails
     here, before any ledger counts it *)
  let cost = cost_of sess.costs sess.data kind in
  (* arrival conservation, checked before this arrival is counted: every
     prior submission was either admitted or shed, never both or neither *)
  if sess.cfg.check && st.submitted <> st.admitted + st.shed then
    Chipsim.Invariant.fail
      "serve: tenant %s saw %d arrivals but admitted %d + shed %d"
      st.cfg_t.name st.submitted st.admitted st.shed;
  st.submitted <- st.submitted + 1;
  Metrics.incr sess.registry "serve.submitted";
  (* degradation-aware admission: queue bounds shrink with the machine's
     effective compute capacity (offline / DVFS-throttled cores), so a
     faulted machine sheds early instead of queueing work it cannot
     drain within the wait bound *)
  let capacity =
    Chipsim.Modifiers.online_capacity (Machine.modifiers sess.inst.Systems.machine)
  in
  Metrics.set_gauge sess.registry "serve.effective_capacity" capacity;
  let decision =
    Admission.decide
      (Admission.scale sess.cfg.admission ~capacity)
      ~tenant_depth:(Fair_queue.tenant_depth sess.fq ~tenant:st.idx)
      ~global_depth:(Fair_queue.length sess.fq)
  in
  match decision with
  | Admission.Admit ->
      st.admitted <- st.admitted + 1;
      Metrics.incr sess.registry "serve.admitted";
      trace_job sess ~phase:Engine.Trace.Admit ~tenant:st.cfg_t.name ~kind
        ~job_id ~at_ns:now;
      let p =
        {
          id = job_id;
          tenant = st.idx;
          kind;
          job_seed = seed_of ();
          submit_ns = now;
          done_f = Future.create ();
        }
      in
      Fair_queue.push sess.fq ~tenant:st.idx ~cost p;
      Metrics.set_gauge sess.registry "serve.queue_depth"
        (float_of_int (Fair_queue.length sess.fq));
      (decision, Some p)
  | (Admission.Shed_tenant_full | Admission.Shed_server_full) as d ->
      st.shed <- st.shed + 1;
      trace_job sess ~phase:Engine.Trace.Shed ~tenant:st.cfg_t.name ~kind
        ~job_id ~at_ns:now;
      Metrics.incr sess.registry "serve.shed";
      Metrics.incr sess.registry ("serve.shed." ^ Admission.decision_name d);
      Metrics.incr sess.registry ("tenant." ^ st.cfg_t.name ^ ".shed");
      (d, None)

(* [arrival] is the job's nominal arrival instant: the Poisson timestamp
   for open-loop tenants (latency is measured from offered arrival, even
   if the acceptor task processed it late), the client's clock for
   closed-loop ones *)
let submit_in_sim sess ctx st ~arrival kind =
  let job_id = !(sess.next_job_id) in
  incr sess.next_job_id;
  match
    admit_or_shed sess st ~job_id ~arrival ~kind ~seed_of:(fun () ->
        Engine.Rng.int st.mix_rng 0x3FFFFFFF)
  with
  | _, Some p ->
      pump sess ctx;
      p.done_f
  | _, None ->
      (* back-pressure signal: the caller's future resolves immediately,
         so closed-loop clients retry after their think time *)
      let f = Future.create () in
      Future.fulfill ctx f arrival;
      f

let submit_external sess ~tenant ~job_id ~arrival ~kind ~job_seed =
  if tenant < 0 || tenant >= Array.length sess.tenants then
    invalid_arg "Server.Session.submit: tenant index out of range";
  fst
    (admit_or_shed sess sess.tenants.(tenant) ~job_id ~arrival ~kind
       ~seed_of:(fun () -> job_seed))

let drain sess ~horizon ~kick_ns =
  sess.horizon <- horizon;
  if Fair_queue.length sess.fq > 0 then begin
    ignore (Sched.spawn sess.sched ~at:kick_ns (fun ctx -> pump sess ctx) : Sched.task);
    let m = Sched.run sess.sched in
    sess.makespan <- Float.max sess.makespan m
  end

let drop_queued sess =
  let rec go acc =
    match Fair_queue.pop sess.fq with
    | None -> List.rev acc
    | Some (tidx, p) ->
        let st = sess.tenants.(tidx) in
        st.relocated_out <- st.relocated_out + 1;
        Metrics.incr sess.registry "serve.relocated_out";
        go
          ({
             r_id = p.id;
             r_tenant = tidx;
             r_kind = p.kind;
             r_seed = p.job_seed;
             r_submit_ns = p.submit_ns;
           }
          :: acc)
  in
  let dropped = go [] in
  Metrics.set_gauge sess.registry "serve.queue_depth"
    (float_of_int (Fair_queue.length sess.fq));
  dropped

let note_relocated_in sess ~tenant =
  if tenant >= 0 && tenant < Array.length sess.tenants then begin
    let st = sess.tenants.(tenant) in
    st.relocated_in <- st.relocated_in + 1;
    Metrics.incr sess.registry "serve.relocated_in"
  end

let queue_length sess = Fair_queue.length sess.fq
let tenant_queue_depth sess ~tenant = Fair_queue.tenant_depth sess.fq ~tenant

let queued_cost sess =
  (* Fair_queue does not expose iteration, so approximate the queued
     service demand as depth x mean mix cost per tenant — stable,
     deterministic and monotone with the real backlog. *)
  let total = ref 0.0 in
  Array.iter
    (fun st ->
      (* a replicated tenant's queued job will run [replicas] times *)
      total :=
        !total
        +. (float_of_int (Fair_queue.tenant_depth sess.fq ~tenant:st.idx)
           *. st.mean_cost
           *. float_of_int st.cfg_t.replicas))
    sess.tenants;
  !total

let backlog_ns sess =
  let m = ref 0.0 in
  for w = 0 to Sched.n_workers sess.sched - 1 do
    m := Float.max !m (Sched.worker_clock sess.sched w)
  done;
  !m

let cost_estimate sess kind = cost_of sess.costs sess.data kind
let session_registry sess = sess.registry
let session_instance sess = sess.inst

let finish sess =
  Sched.set_hooks sess.sched sess.base_hooks;
  (* flow end-of-run profiler / trace / machine statistics into the registry *)
  (match sess.inst.Systems.charm with
  | Some rt ->
      let prof = Charm.Runtime.profiler rt in
      for w = 0 to Charm.Runtime.n_workers rt - 1 do
        let s = Charm.Profiler.cumulative prof ~worker:w in
        Metrics.incr sess.registry ~by:s.Charm.Profiler.local_hits "profiler.local_hits";
        Metrics.incr sess.registry ~by:s.Charm.Profiler.remote_chiplet "profiler.remote_chiplet";
        Metrics.incr sess.registry ~by:s.Charm.Profiler.remote_numa "profiler.remote_numa";
        Metrics.incr sess.registry ~by:s.Charm.Profiler.dram "profiler.dram"
      done
  | None -> ());
  (match sess.cfg.trace with
  | Some tr ->
      Metrics.set_gauge sess.registry "trace.events"
        (float_of_int (Engine.Trace.num_events tr))
  | None -> ());
  let stats = Systems.report sess.inst in
  let acc = stats.Engine.Stats.accesses in
  Metrics.incr sess.registry ~by:acc.Engine.Stats.local_chiplet "fills.local_chiplet";
  Metrics.incr sess.registry ~by:acc.Engine.Stats.remote_chiplet "fills.remote_chiplet";
  Metrics.incr sess.registry ~by:acc.Engine.Stats.remote_numa "fills.remote_numa";
  Metrics.incr sess.registry ~by:acc.Engine.Stats.dram "fills.dram";
  Metrics.set_gauge sess.registry "serve.makespan_ns" sess.makespan;
  (* energy: growth not claimed by any completion (startup, idle spin,
     trailing work past the last completion) is the overhead residual *)
  let machine = sess.inst.Systems.machine in
  let final_e = Machine.combined_energy_pj machine in
  let overhead_pj = final_e -. sess.last_energy_pj in
  Metrics.set_gauge sess.registry "serve.energy_uj"
    ((final_e -. sess.base_energy_pj) /. 1e6);
  Metrics.set_gauge sess.registry "serve.energy_overhead_uj"
    (overhead_pj /. 1e6);
  Array.iter
    (fun st ->
      Metrics.set_gauge sess.registry
        ("tenant." ^ st.cfg_t.name ^ ".energy_uj")
        (st.energy_pj /. 1e6))
    sess.tenants;
  let tenant_reports =
    Array.to_list sess.tenants
    |> List.map (fun st ->
           {
             tenant = st.cfg_t.name;
             submitted = st.submitted;
             admitted = st.admitted;
             shed = st.shed;
             completed = st.completed;
             relocated_out = st.relocated_out;
             relocated_in = st.relocated_in;
             slo_ns = st.slo;
             slo_violations = st.slo_violations;
             latency = st.lat_hist;
             queue_wait = st.wait_hist;
             energy_uj = st.energy_pj /. 1e6;
             replicas = st.cfg_t.replicas;
             divergences = st.divergences;
           })
  in
  if sess.cfg.check then begin
    check_report ~registry:sess.registry ~fq:sess.fq sess.tenants;
    check_energy ~machine ~base_energy_pj:sess.base_energy_pj ~overhead_pj
      sess.tenants
  end;
  {
    makespan_ns = sess.makespan;
    tenant_reports;
    registry = sess.registry;
    stats;
  }

module Session = struct
  type t = session

  type nonrec relocatable = relocatable = {
    r_id : int;
    r_tenant : int;
    r_kind : Job.kind;
    r_seed : int;
    r_submit_ns : float;
  }

  let create = create
  let submit = submit_external
  let drain = drain
  let drop_queued = drop_queued
  let note_relocated_in = note_relocated_in
  let queue_length = queue_length
  let tenant_queue_depth = tenant_queue_depth
  let queued_cost = queued_cost
  let backlog_ns = backlog_ns
  let cost_estimate = cost_estimate
  let registry = session_registry
  let instance = session_instance
  let finish = finish
end

let run inst cfg =
  let sess = create inst cfg in
  (* drive: one source per tenant, spawned from the main task *)
  let makespan =
    sess.env.Workloads.Exec_env.run (fun ctx ->
        Array.iter
          (fun st ->
            match st.cfg_t.process with
            | Arrivals.Open_loop { rate_per_s } ->
                let times =
                  Arrivals.poisson_times ~rng:st.arrival_rng ~rate_per_s
                    ~jobs:st.cfg_t.jobs
                in
                let n = Array.length times in
                (* chain the source: each arrival schedules the next, so at
                   most one future-ready task per tenant exists at a time.
                   Spawning the whole schedule upfront lets idle thieves
                   steal far-future arrivals, drag their clocks forward,
                   and later finish stolen job fragments "in the future" —
                   inflating every measured latency *)
                let rec arrive k ctx' =
                  if k + 1 < n then
                    ignore
                      (Sched.Ctx.spawn ctx' ~at:times.(k + 1) (arrive (k + 1))
                        : Sched.task);
                  let kind = Job.pick_kind st.mix_rng st.cfg_t.mix in
                  ignore
                    (submit_in_sim sess ctx' st ~arrival:times.(k) kind
                      : float Future.t)
                in
                if n > 0 then
                  ignore (Sched.Ctx.spawn ctx ~at:times.(0) (arrive 0) : Sched.task)
            | Arrivals.Closed_loop { clients; think_ns } ->
                for c = 0 to clients - 1 do
                  let quota =
                    (st.cfg_t.jobs / clients)
                    + (if c < st.cfg_t.jobs mod clients then 1 else 0)
                  in
                  if quota > 0 then
                    ignore
                      (Sched.Ctx.spawn ctx (fun ctx' ->
                           for _ = 1 to quota do
                             let kind = Job.pick_kind st.mix_rng st.cfg_t.mix in
                             let f =
                               submit_in_sim sess ctx' st
                                 ~arrival:(Sched.Ctx.now ctx') kind
                             in
                             ignore (Future.await ctx' f : float);
                             if think_ns > 0.0 then Sched.Ctx.work ctx' think_ns
                           done)
                        : Sched.task)
                done)
          sess.tenants)
  in
  sess.makespan <- makespan;
  finish sess

let report_to_json r =
  let obj = Engine.Json.obj in
  let f = Metrics.json_of_float in
  let acc = r.stats.Engine.Stats.accesses in
  let fills =
    obj
      [
        ("l2_hits", string_of_int acc.Engine.Stats.l2_hits);
        ("local_chiplet", string_of_int acc.Engine.Stats.local_chiplet);
        ("remote_chiplet", string_of_int acc.Engine.Stats.remote_chiplet);
        ("remote_numa", string_of_int acc.Engine.Stats.remote_numa);
        ("dram", string_of_int acc.Engine.Stats.dram);
      ]
  in
  let tenant (tr : tenant_report) =
    obj
      [
        ("name", Engine.Json.str tr.tenant);
        ("submitted", string_of_int tr.submitted);
        ("admitted", string_of_int tr.admitted);
        ("shed", string_of_int tr.shed);
        ("completed", string_of_int tr.completed);
        ("relocated_out", string_of_int tr.relocated_out);
        ("relocated_in", string_of_int tr.relocated_in);
        ("slo_ns", f tr.slo_ns);
        ("slo_violations", string_of_int tr.slo_violations);
        ("latency_ns", Metrics.json_of_histogram tr.latency);
        ("queue_wait_ns", Metrics.json_of_histogram tr.queue_wait);
        ("energy_uj", f tr.energy_uj);
        ("replicas", string_of_int tr.replicas);
        ("divergences", string_of_int tr.divergences);
      ]
  in
  let energy =
    obj
      [
        ("total_uj", f (Metrics.gauge_value r.registry "serve.energy_uj"));
        ( "overhead_uj",
          f (Metrics.gauge_value r.registry "serve.energy_overhead_uj") );
      ]
  in
  let admission =
    obj
      [
        ( "submitted",
          string_of_int (Metrics.counter_value r.registry "serve.submitted") );
        ( "admitted",
          string_of_int (Metrics.counter_value r.registry "serve.admitted") );
        ("shed", string_of_int (Metrics.counter_value r.registry "serve.shed"));
        ( "effective_capacity",
          f (Metrics.gauge_value r.registry "serve.effective_capacity") );
      ]
  in
  obj
    [
      ("makespan_ns", f r.makespan_ns);
      ("admission", admission);
      ("energy", energy);
      ("fills", fills);
      ("tenants", Engine.Json.arr (List.map tenant r.tenant_reports));
      ("metrics", Metrics.to_json r.registry);
    ]
