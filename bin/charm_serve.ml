(* charm_serve: online multi-tenant serving of a job mix on the simulated
   chiplet machine under a runtime system — Poisson (or closed-loop)
   arrivals, admission control, weighted fair queueing, and a JSON metrics
   report on stdout (deterministic for a given seed: two identical
   invocations print identical bytes).

   Examples:
     charm_serve -s charm -m amd -n 32 --rate 5000 --seed 42
     charm_serve -s ring -n 32 --rate 8000 --jobs 100 --queue-bound 16
     charm_serve -s charm -n 32 --closed-loop 8 --think-us 50 *)

open Cmdliner
module Sys_ = Harness.Systems
module Serve = Serving

(* tenant mixes are "name:weight:kind+kind+..." triples; the default three
   tenants mirror the paper's workload families.  Parsing lives in
   Serving.Spec so malformed specs fail with errors naming the field. *)
let msg_of_result = function Ok v -> Ok v | Error m -> Error (`Msg m)
let parse_tenant spec = msg_of_result (Serve.Spec.parse_tenant spec)

let default_mixes =
  [
    ("graph", 2.0, [ (Serve.Job.Bfs, 2); (Serve.Job.Pagerank, 1) ]);
    ("olap", 1.0, [ (Serve.Job.Tpch 1, 1); (Serve.Job.Tpch 3, 1); (Serve.Job.Tpch 6, 1) ]);
    ("oltp", 1.0, [ (Serve.Job.Ycsb_batch 256, 2); (Serve.Job.Gups 4096, 1) ]);
  ]

(* --shard-machines accepts a comma-separated list cycled over the
   shards; each entry is a preset ("amd,intel") or a topology-file path,
   so a fleet can mix preset and data-driven machines *)
let parse_shard_machines spec =
  msg_of_result
    (Serve.Spec.parse_shard_machines ~fallback:Sys_.custom_machine_of_spec
       ~machines:Sys_.cli_machines spec)

(* --faults-shard entries are SHARD:SPEC (spec inline or a file path) *)
let parse_shard_fault spec = msg_of_result (Serve.Spec.parse_shard_fault spec)

let run_fleet (c : Cli.common) ~n_shards ~machine ~shard_machines ~policy
    ~epoch_us ~diurnal ~diurnal_period_us ~no_relocation ~shard_faults ~cfg =
  let machines = match shard_machines with [] -> [ machine ] | ms -> ms in
  (* --faults without a shard qualifier applies to shard 0 *)
  let fault_specs =
    (match c.faults with Some s -> [ (0, s) ] | None -> []) @ shard_faults
  in
  let faults =
    List.map
      (fun (shard, spec) ->
        let kind = List.nth machines (shard mod List.length machines) in
        let topo = Sys_.topology kind ~cache_scale:c.cache_scale in
        let what = Printf.sprintf "fault spec for shard %d" shard in
        (shard, Cli.fault_schedule ~what ~topo spec))
      fault_specs
  in
  let res =
    Fleet.Cluster.run
      {
        Fleet.Cluster.n_shards;
        sys = c.sys;
        machines;
        n_workers = c.workers;
        cache_scale = c.cache_scale;
        policy;
        epoch_us;
        serve = { cfg with Serve.Server.trace = None };
        diurnal_amplitude = diurnal;
        diurnal_period_us;
        faults;
        relocation = not no_relocation;
        trace = c.trace <> None;
      }
  in
  print_string (Fleet.Cluster.result_to_json res);
  print_newline ();
  match c.trace with
  | Some file when res.Fleet.Cluster.traces <> [] ->
      Engine.Trace.save_merged res.Fleet.Cluster.traces file;
      let events =
        List.fold_left
          (fun acc tr -> acc + Engine.Trace.num_events tr)
          0 res.Fleet.Cluster.traces
      in
      Printf.eprintf
        "wrote %d trace events (%d tracks) to %s (load in chrome://tracing)\n"
        events
        (List.length res.Fleet.Cluster.traces)
        file
  | _ -> ()

let main (c : Cli.common) rate jobs seed max_inflight queue_bound slo_factor
    closed_loop think_us tenant_specs graph_scale dag_mapper replicate_specs
    fleet router epoch_us shard_machines shard_faults diurnal
    diurnal_period_us no_relocation =
  Cli.run "charm_serve" c @@ fun machine ->
  (* --fleet 0 is single-machine mode; any other value, negative ones
     included, goes to the cluster, which validates it *)
  if fleet <> 0 && closed_loop <> None then
    invalid_arg "--fleet drives open-loop tenants only";
  let mixes = if tenant_specs = [] then default_mixes else tenant_specs in
  let process =
    match closed_loop with
    | Some clients ->
        Serve.Arrivals.Closed_loop { clients; think_ns = think_us *. 1e3 }
    | None -> Serve.Arrivals.Open_loop { rate_per_s = rate }
  in
  let tenants =
    List.map
      (fun (name, weight, mix) ->
        { Serve.Server.name; weight; slo_factor; process; jobs; mix; replicas = 1 })
      mixes
  in
  (* --replicate NAME:K marks configured tenants for redundant execution *)
  let tenants =
    List.fold_left
      (fun tenants (rname, k) ->
        if not (List.exists (fun t -> t.Serve.Server.name = rname) tenants)
        then
          Printf.ksprintf invalid_arg "--replicate %s:%d names no tenant (have %s)"
            rname k
            (String.concat "/"
               (List.map (fun t -> t.Serve.Server.name) tenants));
        List.map
          (fun t ->
            if t.Serve.Server.name = rname then
              { t with Serve.Server.replicas = k }
            else t)
          tenants)
      tenants replicate_specs
  in
  let trace = Option.map (fun file -> (Engine.Trace.create (), file)) c.trace in
  let cfg =
    {
      Serve.Server.tenants;
      admission =
        {
          Serve.Admission.max_queue_per_tenant = queue_bound;
          max_global_queue = queue_bound * max 2 (List.length tenants);
        };
      max_inflight;
      seed;
      data =
        {
          Serve.Job.graph_scale;
          dag_comm_aware = dag_mapper = Taskgraph.Mapper.Comm_aware;
          seed = seed + 1;
        };
      trace = Option.map fst trace;
      on_complete = None;
      check = c.check;
    }
  in
  if fleet <> 0 then begin
    if Cli.energy_on c then
      invalid_arg
        "--energy/--energy-weight/--power-cap are single-machine knobs \
         (shards build their own runtimes)";
    run_fleet c ~n_shards:fleet ~machine ~shard_machines ~policy:router
      ~epoch_us ~diurnal ~diurnal_period_us ~no_relocation ~shard_faults ~cfg
  end
  else begin
    let report = Serve.Server.run (Cli.instance c machine) cfg in
    print_string (Serve.Server.report_to_json report);
    print_newline ();
    Option.iter (fun (tr, file) -> Cli.save_trace tr file) trace
  end

let tenant_conv = Arg.conv (parse_tenant, fun ppf (n, w, _) -> Format.fprintf ppf "%s:%g" n w)

let rate_arg =
  Arg.(value & opt float 5000.0 & info [ "rate" ] ~doc:"Offered load per tenant (jobs/s of virtual time).")

let jobs_arg =
  Arg.(value & opt int 40 & info [ "jobs" ] ~doc:"Jobs submitted per tenant.")

let inflight_arg =
  Arg.(value & opt int 4 & info [ "max-inflight" ] ~doc:"Concurrent jobs in service.")

let queue_bound_arg =
  Arg.(value & opt int 64 & info [ "queue-bound" ] ~doc:"Per-tenant admission queue bound.")

let slo_arg =
  Arg.(value & opt float 3.0 & info [ "slo-factor" ] ~doc:"SLO as a multiple of the tenant's mean job cost.")

let closed_loop_arg =
  Arg.(value & opt (some int) None & info [ "closed-loop" ] ~doc:"Closed-loop clients per tenant (instead of Poisson arrivals).")

let think_arg =
  Arg.(value & opt float 50.0 & info [ "think-us" ] ~doc:"Closed-loop think time (us of virtual time); ignored without --closed-loop.")

let tenants_arg =
  Arg.(value & opt_all tenant_conv [] & info [ "tenant" ] ~doc:"Tenant spec name:weight:kind+kind (e.g. gold:2:bfs+tpch:3); repeatable.")

let dag_mapper_arg =
  let policies =
    List.map
      (fun p -> (Taskgraph.Mapper.policy_name p, p))
      Taskgraph.Mapper.all_policies
  in
  Arg.(
    value
    & opt (enum policies) Taskgraph.Mapper.Comm_aware
    & info [ "dag-mapper" ] ~docv:"POLICY"
        ~doc:
          "How task-DAG tenants (kinds $(b,dag:SHAPE:LAYERS)) are mapped \
           onto chiplets: $(b,comm-aware) (contract heavy edges, place \
           clusters by kind-weighted load) or $(b,blind) (round-robin \
           baseline).")

let replicate_conv =
  Arg.conv
    ( (fun spec -> msg_of_result (Serve.Spec.parse_replication spec)),
      fun ppf (n, k) -> Format.fprintf ppf "%s:%d" n k )

let replicate_arg =
  Arg.(
    value
    & opt_all replicate_conv []
    & info [ "replicate" ] ~docv:"NAME:K"
        ~doc:
          "Run the named tenant's jobs $(b,K) times each on distinct \
           chiplets and vote on the result tokens; injected corruption \
           faults are masked and counted as divergences in the report. \
           Repeatable, one entry per tenant.")

let fleet_arg =
  Arg.(
    value & opt int 0
    & info [ "fleet" ] ~docv:"N"
        ~doc:
          "Shard the server across $(docv) simulated machines behind a \
           cluster router (0 = single-machine mode). Per-tenant --rate and \
           --jobs become cluster-wide; the report is the fleet JSON \
           summary (merged metrics, router counters, per-shard detail).")

let router_arg =
  let policies =
    List.map (fun p -> (Fleet.Router.policy_name p, p)) Fleet.Router.all_policies
  in
  Arg.(
    value
    & opt (enum policies) Fleet.Router.Charm_aware
    & info [ "router" ] ~docv:"POLICY"
        ~doc:
          "Fleet placement policy: $(b,charm) (load over effective \
           capacity, chiplet-health-aware, tenant affinity), \
           $(b,least-loaded) (load only, chiplet-blind), $(b,ewma) \
           (EWMA of observed per-shard job latencies times queue depth), \
           or $(b,round-robin).")

let epoch_us_arg =
  Arg.(
    value & opt float 250.0
    & info [ "epoch-us" ] ~docv:"US"
        ~doc:
          "Fleet routing epoch (virtual us): shards drain with a dispatch \
           horizon at each epoch end, and routing/relocation decisions run \
           at epoch boundaries.")

let shard_machines_conv =
  Arg.conv
    ( parse_shard_machines,
      fun ppf ms ->
        Format.fprintf ppf "%s"
          (String.concat "," (List.map Sys_.machine_name ms)) )

let shard_machines_arg =
  Arg.(
    value
    & opt (some shard_machines_conv) None
    & info [ "shard-machines" ] ~docv:"LIST"
        ~doc:
          "Comma-separated machine specs cycled over the shards: presets \
           (e.g. $(b,amd,intel)) and/or topology-file paths (e.g. \
           $(b,amd,examples/topologies/tiny-hetero.topo) for a \
           heterogeneous fleet); defaults to the --machine preset for \
           every shard.")

let shard_fault_conv =
  Arg.conv (parse_shard_fault, fun ppf (s, spec) -> Format.fprintf ppf "%d:%s" s spec)

let shard_faults_arg =
  Arg.(
    value
    & opt_all shard_fault_conv []
    & info [ "faults-shard" ] ~docv:"SHARD:SPEC"
        ~doc:
          "Fault schedule for one shard in fleet mode (spec inline or a \
           file path; same grammar as --faults, which in fleet mode \
           applies to shard 0). Repeatable.")

let diurnal_arg =
  Arg.(
    value & opt float 0.0
    & info [ "diurnal" ] ~docv:"A"
        ~doc:
          "Diurnal modulation amplitude in [0,1] for fleet arrivals: the \
           Poisson rate swings by a factor (1 ± $(docv)) over each period.")

let diurnal_period_arg =
  Arg.(
    value & opt float 4000.0
    & info [ "diurnal-period-us" ] ~docv:"US" ~doc:"Diurnal period (virtual us).")

let no_relocation_arg =
  Arg.(
    value & flag
    & info [ "no-relocation" ]
        ~doc:
          "Disable cross-shard relocation of queued jobs away from \
           degraded shards.")

let cmd =
  let doc = "serve a multi-tenant job mix online on the simulated chiplet machine" in
  Cmd.v
    (Cmd.info "charm_serve" ~doc)
    Term.(
      const main $ Cli.common ~workers:32 $ rate_arg $ jobs_arg
      $ Cli.seed ~default:42 $ inflight_arg $ queue_bound_arg $ slo_arg
      $ closed_loop_arg $ think_arg $ tenants_arg
      $ Cli.graph_scale ~default:10 $ dag_mapper_arg $ replicate_arg
      $ fleet_arg $ router_arg $ epoch_us_arg
      $ Term.(
          const (function None -> [] | Some ms -> ms) $ shard_machines_arg)
      $ shard_faults_arg $ diurnal_arg $ diurnal_period_arg $ no_relocation_arg)

let () = exit (Cmd.eval cmd)
