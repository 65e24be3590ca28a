module Systems = Harness.Systems
module Schedule = Faults.Schedule
module Gen = QCheck.Gen
open Chipsim

type batch_workload = Bfs | Pagerank | Tpch of int | Gups

type tenant = {
  tname : string;
  tweight : float;
  tkinds : Serving.Job.kind list;
  treplicas : int;
}

type serve_params = {
  rate_per_s : float;
  jobs : int;
  max_inflight : int;
  queue_bound : int;
  serve_graph_scale : int;
  senergy_weight : float;  (** CHARM EDP-aware placement weight (0 = off) *)
  spower_cap_mw : float;  (** machine power cap in simulated mW (0 = off) *)
  tenants : tenant list;
}

type fleet_params = {
  shards : int;
  fpolicy : Fleet.Router.policy;
  fepoch_us : float;
  fdiurnal : float;
  frelocation : bool;
  fshard_faults : (int * Schedule.t) list;
  fserve : serve_params;
}

type kind =
  | Batch of { workload : batch_workload; graph_scale : int }
  | Serve of serve_params
  | Fleet of fleet_params

type t = {
  seed : int;
  sys : Systems.sys;
  machine : Systems.machine_kind;
  cache_scale : int;
  workers : int;
  faults : Schedule.t;
  kind : kind;
}

type mode = Smoke | Deep

(* -- generation ---------------------------------------------------------- *)

let batch_workloads = [ Bfs; Pagerank; Tpch 1; Tpch 3; Tpch 6; Gups ]

let serve_kind_pool =
  Serving.Job.
    [
      Bfs; Pagerank; Gups 512; Gups 2048; Tpch 1; Tpch 3; Tpch 6; Ycsb_batch 64;
      Dag (Taskgraph.Graph.Chain, 4);
      Dag (Taskgraph.Graph.Inception, 3);
      Dag (Taskgraph.Graph.Fanout, 4);
    ]

let tenant_names = [ "gold"; "silver"; "bronze" ]

let gen_tenant i =
  let open Gen in
  let* tweight = oneofl [ 1.0; 2.0; 4.0 ] in
  let* nkinds = int_range 1 3 in
  let* tkinds = list_repeat nkinds (oneofl serve_kind_pool) in
  let* treplicas = frequencyl [ (3, 1); (1, 2); (1, 3) ] in
  return { tname = List.nth tenant_names i; tweight; tkinds; treplicas }

let gen_serve_params mode =
  let open Gen in
  let max_gs = match mode with Smoke -> 7 | Deep -> 9 in
  let* jobs = int_range 2 (match mode with Smoke -> 10 | Deep -> 24) in
  let* rate_k = int_range 2 20 in
  let* max_inflight = int_range 1 4 in
  let* queue_bound = int_range 1 8 in
  let* serve_graph_scale = int_range 5 (min 8 max_gs) in
  let* senergy_weight = oneofl [ 0.0; 0.0; 0.5; 2.0 ] in
  let* spower_cap_mw = oneofl [ 0.0; 0.0; 2.0; 10.0 ] in
  let* ntenants = int_range 1 (match mode with Smoke -> 2 | Deep -> 3) in
  let* tenants = flatten_l (List.init ntenants gen_tenant) in
  return
    {
      rate_per_s = float_of_int (rate_k * 1000);
      jobs;
      max_inflight;
      queue_bound;
      serve_graph_scale;
      senergy_weight;
      spower_cap_mw;
      tenants;
    }

let gen_kind mode ~machine ~cache_scale =
  let open Gen in
  let max_gs = match mode with Smoke -> 7 | Deep -> 9 in
  frequencyl [ (4, `Batch); (2, `Serve); (1, `Fleet) ] >>= function
  | `Batch ->
      let* workload = oneofl batch_workloads in
      let* graph_scale = int_range 5 max_gs in
      return (Batch { workload; graph_scale })
  | `Serve ->
      let* p = gen_serve_params mode in
      return (Serve p)
  | `Fleet ->
      let* fserve = gen_serve_params mode in
      (* cluster shards build their own runtimes; the energy/cap knobs
         only reach single-machine serving, so zero them here to keep
         the repro line honest *)
      let fserve = { fserve with senergy_weight = 0.0; spower_cap_mw = 0.0 } in
      let* shards = int_range 2 (match mode with Smoke -> 3 | Deep -> 4) in
      let* fpolicy = oneofl Fleet.Router.all_policies in
      let* fepoch_us = oneofl [ 100.0; 250.0; 500.0 ] in
      let* fdiurnal = oneofl [ 0.0; 0.0; 0.6 ] in
      let* frelocation = bool in
      let* nfaulted =
        frequencyl
          (match mode with
          | Smoke -> [ (2, 0); (2, 1) ]
          | Deep -> [ (1, 0); (2, 1); (1, 2) ])
      in
      let* fshard_faults =
        if nfaulted = 0 then return []
        else
          let topo = Systems.topology machine ~cache_scale in
          let horizon_us = match mode with Smoke -> 2000.0 | Deep -> 20_000.0 in
          flatten_l
            (List.init nfaulted (fun _ ->
                 let* shard = int_range 0 (shards - 1) in
                 let* fault_seed = int_range 0 1_000_000 in
                 let* n = int_range 2 4 in
                 return
                   (shard, Schedule.random ~topo ~seed:fault_seed ~n ~horizon_us)))
      in
      return
        (Fleet
           {
             shards;
             fpolicy;
             fepoch_us;
             fdiurnal;
             frelocation;
             fshard_faults;
             fserve;
           })

(* random data-driven machine: small geometries so fuzz runs stay fast,
   kinds biased toward big so most cores keep baseline speed; sometimes a
   degraded I/O-die link on one chiplet.  Guaranteed >= 4 cores. *)
let gen_custom_machine =
  let open Gen in
  let* sockets = oneofl [ 1; 2 ] in
  let* chiplets_per_socket = oneofl [ 2; 4 ] in
  let* cores_per_chiplet = oneofl [ 2; 4 ] in
  let* chiplet_group_size =
    oneofl (if chiplets_per_socket = 4 then [ 1; 2; 4 ] else [ 1; 2 ])
  in
  let nchiplets = sockets * chiplets_per_socket in
  let* kinds =
    flatten_l
      (List.init nchiplets (fun _ ->
           frequencyl
             [ (3, Topology.Big); (2, Topology.Little); (1, Topology.Accel) ]))
  in
  let* l2_kib = oneofl [ 16; 32; 64 ] in
  let* l3_kib = oneofl [ 512; 1024 ] in
  let* slow_link = frequencyl [ (2, None); (1, Some ()) ] in
  let* slow_chiplet = int_range 0 (nchiplets - 1) in
  let links = Array.make nchiplets Topology.default_link in
  (match slow_link with
  | Some () ->
      links.(slow_chiplet) <-
        { Topology.lat_mult = 1.5; bw_bytes_per_ns = 2.0 }
  | None -> ());
  let topo =
    Topology.v ~chiplet_group_size ~l3_bytes_per_chiplet:(l3_kib * 1024)
      ~l2_bytes_per_core:(l2_kib * 1024) ~mem_channels_per_socket:2
      ~chiplet_kinds:(Array.of_list kinds) ~links ~sockets ~chiplets_per_socket
      ~cores_per_chiplet ()
  in
  return (Systems.Custom { name = "fuzz-hetero"; topo })

let gen ~mode ~seed =
  let open Gen in
  let* machine =
    let presets =
      match mode with
      | Smoke -> [ Systems.Amd_milan_1s ]
      | Deep -> [ Systems.Amd_milan_1s; Systems.Amd_milan; Systems.Intel_spr ]
    in
    frequency [ (4, oneofl presets); (1, gen_custom_machine) ]
  in
  let* sys =
    oneofl
      (match mode with
      | Smoke -> [ Systems.Charm; Systems.Ring; Systems.Os_default ]
      | Deep ->
          [
            Systems.Charm; Systems.Charm_os_threads; Systems.Ring;
            Systems.Shoal; Systems.Asymsched; Systems.Os_default;
          ])
  in
  let* cache_scale = oneofl [ 16; 32; 64 ] in
  let* workers = int_range 2 (match mode with Smoke -> 6 | Deep -> 12) in
  (* custom machines can be tiny (4 cores); presets always have >= 48 *)
  let workers =
    min workers (Topology.num_cores (Systems.topology machine ~cache_scale))
  in
  let* kind = gen_kind mode ~machine ~cache_scale in
  (* fleet scenarios carry per-shard schedules inside the kind instead *)
  let* fault_n =
    match kind with
    | Fleet _ -> return 0
    | Batch _ | Serve _ ->
        frequencyl
          (match mode with
          | Smoke -> [ (3, 0); (2, 2); (2, 4); (1, 6) ]
          | Deep -> [ (2, 0); (2, 3); (2, 6); (1, 12) ])
  in
  let* fault_seed = int_range 0 1_000_000 in
  let faults =
    if fault_n = 0 then []
    else
      let topo = Systems.topology machine ~cache_scale in
      let horizon_us = match mode with Smoke -> 2000.0 | Deep -> 20_000.0 in
      Schedule.random ~topo ~seed:fault_seed ~n:fault_n ~horizon_us
  in
  (* corruption events live outside [Schedule.random]'s pool (adding them
     there would reshuffle every existing fuzz seed); armed seeds that no
     replica ever consumes are harmless *)
  let* n_corrupt =
    match kind with
    | Fleet _ -> return 0
    | Batch _ | Serve _ -> frequencyl [ (4, 0); (2, 1); (1, 3) ]
  in
  (* multiples of 6 make the victim replica index 0 for any group size
     in {1,2,3,6}, which is what the vote-skip plant needs to trip *)
  let* corrupt_seeds =
    list_repeat n_corrupt (map (fun s -> 6 * s) (int_range 0 1_000_000))
  in
  let faults =
    List.map
      (fun s -> { Schedule.at_ns = 0.0; kind = Schedule.Corruption { seed = s } })
      corrupt_seeds
    @ faults
  in
  return { seed; sys; machine; cache_scale; workers; faults; kind }

let generate ~mode ~seed =
  let rand =
    Random.State.make
      [| 0x5ca1ab1e; seed; (match mode with Smoke -> 0 | Deep -> 1) |]
  in
  Gen.generate1 ~rand (gen ~mode ~seed)

(* -- execution ----------------------------------------------------------- *)

type functional =
  | F_levels of int array
  | F_ranks of float array
  | F_checksum of float
  | F_none

type digest = { report : string; trace : string; fn : functional }

let fn_digest = function
  | F_levels ls ->
      String.concat ","
        (Array.to_list (Array.map string_of_int ls))
  | F_ranks rs ->
      String.concat ","
        (Array.to_list (Array.map (Printf.sprintf "%.17g") rs))
  | F_checksum c -> Printf.sprintf "%.17g" c
  | F_none -> ""

let sched inst = inst.Systems.env.Workloads.Exec_env.sched

let attach_faults inst faults =
  if faults <> [] then
    ignore (Faults.Injector.attach (sched inst) faults : Faults.Injector.t)

let make_graph env ~seed ~graph_scale =
  let alloc ~elt_bytes ~count =
    env.Workloads.Exec_env.alloc_shared ~elt_bytes ~count
  in
  Workloads.Csr.of_kronecker ~weighted:false ~alloc
    (Workloads.Kronecker.generate ~seed ~scale:graph_scale ~edge_factor:16 ())

let bfs_source g =
  let rec go v =
    if v >= g.Workloads.Csr.n - 1 || Workloads.Csr.degree g v > 0 then v
    else go (v + 1)
  in
  go 0

let run_batch_workload env ~seed ~graph_scale ~n_workers:_ = function
  | Bfs ->
      let g = make_graph env ~seed ~graph_scale in
      let levels, _ = Workloads.Bfs.run env g ~source:(bfs_source g) in
      F_levels levels
  | Pagerank ->
      let g = make_graph env ~seed ~graph_scale in
      let ranks, _ = Workloads.Pagerank.run env g () in
      F_ranks ranks
  | Tpch q ->
      let alloc ~elt_bytes ~count =
        env.Workloads.Exec_env.alloc_shared ~elt_bytes ~count
      in
      let data = Olap.Tpch_data.generate ~alloc ~seed ~sf:0.01 () in
      let r, _ = Olap.Tpch_queries.execute env data q in
      F_checksum r.Olap.Tpch_queries.checksum
  | Gups ->
      let params = { Workloads.Gups.default_params with Workloads.Gups.seed } in
      let _ = Workloads.Gups.run env params in
      F_none

let server_config_of_params t (p : serve_params) ~trace =
  let tenants =
    List.map
      (fun te ->
        {
          Serving.Server.name = te.tname;
          weight = te.tweight;
          slo_factor = 3.0;
          process = Serving.Arrivals.Open_loop { rate_per_s = p.rate_per_s };
          jobs = p.jobs;
          mix = List.map (fun k -> (k, 1)) te.tkinds;
          replicas = te.treplicas;
        })
      p.tenants
  in
  {
    Serving.Server.tenants;
    admission =
      {
        Serving.Admission.max_queue_per_tenant = p.queue_bound;
        max_global_queue = p.queue_bound * max 2 (List.length p.tenants);
      };
    max_inflight = p.max_inflight;
    seed = t.seed;
    data =
      {
        Serving.Job.default_data_config with
        graph_scale = p.serve_graph_scale;
        seed = t.seed + 1;
      };
    trace;
    on_complete = None;
    check = true;
  }

(* the fleet oracle subject: the deterministic JSON result plus the
   placement log, with per-shard serving invariants and the cluster
   conservation checks live inside [Cluster.run] *)
let run_fleet t (f : fleet_params) =
  let cfg =
    {
      Fleet.Cluster.n_shards = f.shards;
      sys = t.sys;
      machines = [ t.machine ];
      n_workers = t.workers;
      cache_scale = t.cache_scale;
      policy = f.fpolicy;
      epoch_us = f.fepoch_us;
      serve = server_config_of_params t f.fserve ~trace:None;
      diurnal_amplitude = f.fdiurnal;
      diurnal_period_us = 4000.0;
      faults = f.fshard_faults;
      relocation = f.frelocation;
      trace = false;
    }
  in
  let res = Fleet.Cluster.run cfg in
  {
    report =
      Fleet.Cluster.result_to_json res ^ "\n" ^ res.Fleet.Cluster.placement_log;
    trace = "";
    fn = F_none;
  }

let run_once t =
  match t.kind with
  | Fleet f -> run_fleet t f
  | Batch _ | Serve _ ->
  let charm_config =
    match t.kind with
    | Serve p when p.senergy_weight > 0.0 || p.spower_cap_mw > 0.0 ->
        Some
          {
            Charm.Config.default with
            Charm.Config.energy_weight = p.senergy_weight;
            power_cap_mw = p.spower_cap_mw;
          }
    | _ -> None
  in
  let inst =
    Systems.make ?charm_config ~cache_scale:t.cache_scale t.sys t.machine
      ~n_workers:t.workers ()
  in
  (* non-CHARM systems have no runtime to flip the meter on *)
  (match t.kind with
  | Serve p when p.senergy_weight > 0.0 || p.spower_cap_mw > 0.0 ->
      Engine.Sched.set_energy (sched inst) true
  | _ -> ());
  let tr = Engine.Trace.create () in
  (match t.kind with
  | Fleet _ -> assert false
  | Batch { workload; graph_scale } ->
      Invariants.enable inst;
      (match inst.Systems.charm with
      | Some rt -> Charm.Runtime.attach_trace rt tr
      | None -> Engine.Sched.set_trace (sched inst) (Some tr));
      attach_faults inst t.faults;
      let fn =
        run_batch_workload inst.Systems.env ~seed:t.seed ~graph_scale
          ~n_workers:t.workers workload
      in
      Invariants.verify inst;
      let report =
        Format.asprintf "%a" Engine.Stats.pp (Systems.report inst)
      in
      { report; trace = Engine.Trace.to_chrome_json tr; fn }
  | Serve p ->
      attach_faults inst t.faults;
      let cfg = server_config_of_params t p ~trace:(Some tr) in
      let report = Serving.Server.run inst cfg in
      Invariants.verify inst;
      {
        report = Serving.Server.report_to_json report;
        trace = Engine.Trace.to_chrome_json tr;
        fn = F_none;
      })

(* -- oracles ------------------------------------------------------------- *)

type failure = { oracle : string; detail : string }

let first_difference a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  let i = go 0 in
  let ctx s =
    String.sub s (max 0 (i - 30)) (min 60 (String.length s - max 0 (i - 30)))
  in
  Printf.sprintf "first divergence at byte %d: %S vs %S (lengths %d / %d)" i
    (ctx a) (ctx b) (String.length a) (String.length b)

(* scheduling must never change results: compare against a sequential
   reference where one exists (BFS, PageRank) and a fresh single-worker
   run otherwise (TPC-H).  GUPS has no functional output; serving runs
   are covered by the determinism and invariant oracles only (admission
   outcomes legitimately depend on timing). *)
let reference_failure t fn =
  match (t.kind, fn) with
  | Batch { workload = Bfs; graph_scale }, F_levels levels ->
      let env =
        (Systems.make ~cache_scale:t.cache_scale t.sys t.machine ~n_workers:1
           ())
          .Systems.env
      in
      let g = make_graph env ~seed:t.seed ~graph_scale in
      let expected = Workloads.Bfs.reference g ~source:(bfs_source g) in
      if levels = expected then None
      else
        Some
          {
            oracle = "reference/bfs";
            detail =
              "parallel BFS levels differ from the sequential reference";
          }
  | Batch { workload = Pagerank; graph_scale }, F_ranks ranks ->
      let env =
        (Systems.make ~cache_scale:t.cache_scale t.sys t.machine ~n_workers:1
           ())
          .Systems.env
      in
      let g = make_graph env ~seed:t.seed ~graph_scale in
      let expected = Workloads.Pagerank.reference g () in
      let max_err = ref 0.0 in
      Array.iteri
        (fun i r ->
          max_err := Float.max !max_err (abs_float (r -. expected.(i))))
        ranks;
      if !max_err < 1e-9 then None
      else
        Some
          {
            oracle = "reference/pagerank";
            detail =
              Printf.sprintf
                "ranks diverge from the sequential reference (max err %g)"
                !max_err;
          }
  | Batch { workload = Tpch q; graph_scale }, F_checksum c ->
      let inst1 =
        Systems.make ~cache_scale:t.cache_scale t.sys t.machine ~n_workers:1 ()
      in
      let ref_fn =
        run_batch_workload inst1.Systems.env ~seed:t.seed ~graph_scale
          ~n_workers:1 (Tpch q)
      in
      let expected = match ref_fn with F_checksum e -> e | _ -> nan in
      let tol = 1e-4 +. (1e-7 *. Float.max (abs_float c) (abs_float expected)) in
      if abs_float (c -. expected) <= tol then None
      else
        Some
          {
            oracle = "reference/tpch";
            detail =
              Printf.sprintf
                "Q%d checksum %.9e differs from single-worker run %.9e" q c
                expected;
          }
  | _ -> None

let check t =
  let run () =
    match run_once t with
    | d -> Ok d
    | exception Chipsim.Invariant.Violation msg ->
        Error { oracle = "invariant"; detail = msg }
    | exception e -> Error { oracle = "crash"; detail = Printexc.to_string e }
  in
  match run () with
  | Error f -> Some f
  | Ok d1 -> (
      match run () with
      | Error f -> Some f
      | Ok d2 ->
          if d1.report <> d2.report then
            Some
              {
                oracle = "determinism/report";
                detail = first_difference d1.report d2.report;
              }
          else if d1.trace <> d2.trace then
            Some
              {
                oracle = "determinism/trace";
                detail = first_difference d1.trace d2.trace;
              }
          else if fn_digest d1.fn <> fn_digest d2.fn then
            Some
              {
                oracle = "determinism/result";
                detail =
                  first_difference (fn_digest d1.fn) (fn_digest d2.fn);
              }
          else
            match reference_failure t d1.fn with
            | Some f -> Some f
            | None -> None
            | exception Chipsim.Invariant.Violation msg ->
                Some { oracle = "invariant"; detail = msg }
            | exception e ->
                Some { oracle = "crash"; detail = Printexc.to_string e })

(* -- shrinking ----------------------------------------------------------- *)

let take n l = List.filteri (fun i _ -> i < n) l
let drop n l = List.filteri (fun i _ -> i >= n) l
let remove_nth n l = List.filteri (fun i _ -> i <> n) l

let sanitize_faults ~topo faults =
  let cores = Topology.num_cores topo in
  let chiplets = Topology.num_chiplets topo in
  let nodes = topo.Topology.sockets in
  List.filter
    (fun { Schedule.kind; _ } ->
      match kind with
      | Schedule.Core_off c | Schedule.Core_on c -> c < cores
      | Schedule.Dvfs { core; _ } -> core < cores
      | Schedule.L3_ways { chiplet; _ } | Schedule.Link { chiplet; _ } ->
          chiplet < chiplets
      | Schedule.Xsocket _ | Schedule.Corruption _ -> true
      | Schedule.Membw { node; _ } -> node < nodes)
    faults

let shrink_serve (p : serve_params) =
  let cands = ref [] in
  let add c = if c <> p then cands := c :: !cands in
  if List.length p.tenants > 1 then add { p with tenants = [ List.hd p.tenants ] };
  (match p.tenants with
  | [ te ] when List.length te.tkinds > 1 ->
      add { p with tenants = [ { te with tkinds = [ List.hd te.tkinds ] } ] }
  | _ -> ());
  if p.jobs > 1 then add { p with jobs = max 1 (p.jobs / 2) };
  if p.max_inflight > 1 then add { p with max_inflight = 1 };
  if p.queue_bound > 1 then add { p with queue_bound = 1 };
  if p.serve_graph_scale > 5 then
    add { p with serve_graph_scale = p.serve_graph_scale - 1 };
  if p.senergy_weight > 0.0 then add { p with senergy_weight = 0.0 };
  if p.spower_cap_mw > 0.0 then add { p with spower_cap_mw = 0.0 };
  if List.exists (fun te -> te.treplicas > 1) p.tenants then
    add
      {
        p with
        tenants = List.map (fun te -> { te with treplicas = 1 }) p.tenants;
      };
  List.rev !cands

let shrink t =
  let cands = ref [] in
  let add c = if c <> t then cands := c :: !cands in
  (match t.faults with
  | [] -> ()
  | evs ->
      let n = List.length evs in
      add { t with faults = [] };
      if n >= 2 then begin
        add { t with faults = take (n / 2) evs };
        add { t with faults = drop (n / 2) evs }
      end;
      if n <= 8 then
        List.iteri (fun i _ -> add { t with faults = remove_nth i evs }) evs);
  if t.workers > 2 then begin
    add { t with workers = max 2 (t.workers / 2) };
    add { t with workers = t.workers - 1 }
  end;
  (match t.kind with
  | Batch b ->
      if b.graph_scale > 5 then
        add { t with kind = Batch { b with graph_scale = b.graph_scale - 1 } }
  | Serve p ->
      List.iter (fun p' -> add { t with kind = Serve p' }) (shrink_serve p)
  | Fleet f ->
      (* collapse the fleet tier entirely first — if the bug reproduces on
         a single machine the repro is much simpler *)
      add { t with kind = Serve f.fserve };
      (match f.fshard_faults with
      | [] -> ()
      | [ _ ] -> add { t with kind = Fleet { f with fshard_faults = [] } }
      | evs ->
          add { t with kind = Fleet { f with fshard_faults = [] } };
          List.iteri
            (fun i _ ->
              add
                { t with kind = Fleet { f with fshard_faults = remove_nth i evs } })
            evs);
      if f.shards > 2 then
        add
          {
            t with
            kind =
              Fleet
                {
                  f with
                  shards = f.shards - 1;
                  (* keep fault shard indices in range for the smaller fleet *)
                  fshard_faults =
                    List.filter (fun (s, _) -> s < f.shards - 1) f.fshard_faults;
                };
          };
      if f.fdiurnal > 0.0 then
        add { t with kind = Fleet { f with fdiurnal = 0.0 } };
      if f.frelocation then
        add { t with kind = Fleet { f with frelocation = false } };
      if f.fpolicy <> Fleet.Router.Round_robin then
        add { t with kind = Fleet { f with fpolicy = Fleet.Router.Round_robin } };
      List.iter
        (fun p' -> add { t with kind = Fleet { f with fserve = p' } })
        (shrink_serve f.fserve));
  if t.machine <> Systems.Amd_milan_1s then begin
    let topo = Systems.topology Systems.Amd_milan_1s ~cache_scale:t.cache_scale in
    let kind =
      match t.kind with
      | Fleet f ->
          Fleet
            {
              f with
              fshard_faults =
                List.map
                  (fun (s, sch) -> (s, sanitize_faults ~topo sch))
                  f.fshard_faults;
            }
      | k -> k
    in
    add
      {
        t with
        machine = Systems.Amd_milan_1s;
        faults = sanitize_faults ~topo t.faults;
        kind;
      }
  end;
  if t.sys <> Systems.Charm then add { t with sys = Systems.Charm };
  if t.cache_scale <> 16 then add { t with cache_scale = 16 };
  List.rev !cands

(* -- rendering ----------------------------------------------------------- *)

let sys_cli sys = fst (List.find (fun (_, s) -> s = sys) Systems.cli_systems)

(* machine CLI fragment, flag included: presets render as [-m NAME],
   custom machines inline their whole spec through [--topology] so the
   repro line stays self-contained *)
let machine_frag = function
  | Systems.Custom { topo; _ } ->
      Printf.sprintf "--topology '%s'" (Topology.to_spec topo)
  | m -> Printf.sprintf "-m %s" (Systems.machine_name m)

let workload_cli = function
  | Bfs -> "-w bfs"
  | Pagerank -> "-w pr"
  | Tpch q -> Printf.sprintf "-w tpch -q %d" q
  | Gups -> "-w gups"

let workload_name = function
  | Bfs -> "bfs"
  | Pagerank -> "pr"
  | Tpch q -> Printf.sprintf "tpch:%d" q
  | Gups -> "gups"

let faults_frag t =
  match t.faults with
  | [] -> ""
  | f -> Printf.sprintf " --faults '%s'" (Schedule.to_spec f)

let serve_frags t (p : serve_params) =
  let tenant_frags =
    String.concat ""
      (List.map
         (fun te ->
           Printf.sprintf " --tenant %s:%g:%s" te.tname te.tweight
             (String.concat "+" (List.map Serving.Job.kind_name te.tkinds)))
         p.tenants)
  in
  let replica_frags =
    String.concat ""
      (List.filter_map
         (fun te ->
           if te.treplicas > 1 then
             Some (Printf.sprintf " --replicate %s:%d" te.tname te.treplicas)
           else None)
         p.tenants)
  in
  let energy_frags =
    (if p.senergy_weight > 0.0 then
       Printf.sprintf " --energy-weight %g" p.senergy_weight
     else "")
    ^
    if p.spower_cap_mw > 0.0 then
      Printf.sprintf " --power-cap %g" p.spower_cap_mw
    else ""
  in
  Printf.sprintf
    "-s %s %s -n %d --cache-scale %d --rate %g --jobs %d --seed %d \
     --max-inflight %d --queue-bound %d --graph-scale %d%s%s%s"
    (sys_cli t.sys) (machine_frag t.machine) t.workers t.cache_scale
    p.rate_per_s p.jobs t.seed p.max_inflight p.queue_bound
    p.serve_graph_scale tenant_frags replica_frags energy_frags

(* a planted bug is process state, not part of the scenario: name it so
   the pasted line reproduces the violation *)
let plant_frag () =
  match Chipsim.Invariant.Plant.current () with
  | Some k -> " --plant " ^ Chipsim.Invariant.Plant.name k
  | None -> ""

let to_repro t =
  (match t.kind with
  | Batch { workload; graph_scale } ->
      Printf.sprintf
        "charm_run %s -s %s %s -n %d --cache-scale %d --graph-scale %d \
         --seed %d --check%s"
        (workload_cli workload) (sys_cli t.sys) (machine_frag t.machine)
        t.workers t.cache_scale graph_scale t.seed (faults_frag t)
  | Serve p ->
      Printf.sprintf "charm_serve %s --check%s" (serve_frags t p)
        (faults_frag t)
  | Fleet f ->
      let fault_frags =
        String.concat ""
          (List.map
             (fun (s, sch) ->
               Printf.sprintf " --faults-shard '%d:%s'" s (Schedule.to_spec sch))
             f.fshard_faults)
      in
      Printf.sprintf
        "charm_serve --fleet %d --router %s --epoch-us %g %s%s%s%s --check"
        f.shards
        (Fleet.Router.policy_name f.fpolicy)
        f.fepoch_us
        (serve_frags t f.fserve)
        fault_frags
        (if f.fdiurnal > 0.0 then Printf.sprintf " --diurnal %g" f.fdiurnal
         else "")
        (if f.frelocation then "" else " --no-relocation"))
  ^ plant_frag ()

let describe t =
  let kind =
    match t.kind with
    | Batch { workload; graph_scale } ->
        Printf.sprintf "batch %s scale=%d" (workload_name workload) graph_scale
    | Serve p ->
        Printf.sprintf "serve %d-tenant jobs=%d rate=%g%s%s%s"
          (List.length p.tenants) p.jobs p.rate_per_s
          (if p.spower_cap_mw > 0.0 then
             Printf.sprintf " cap=%gmW" p.spower_cap_mw
           else "")
          (if p.senergy_weight > 0.0 then
             Printf.sprintf " edp=%g" p.senergy_weight
           else "")
          (if List.exists (fun te -> te.treplicas > 1) p.tenants then
             " replicated"
           else "")
    | Fleet f ->
        Printf.sprintf "fleet %dx %s jobs=%d%s%s" f.shards
          (Fleet.Router.policy_name f.fpolicy)
          f.fserve.jobs
          (if f.fdiurnal > 0.0 then " diurnal" else "")
          (if f.frelocation then "" else " no-reloc")
  in
  let n_faults =
    List.length t.faults
    + (match t.kind with
      | Fleet f ->
          List.fold_left (fun a (_, s) -> a + List.length s) 0 f.fshard_faults
      | _ -> 0)
  in
  Printf.sprintf "seed=%d %s on %s/%s n=%d cache/%d faults=%d" t.seed kind
    (sys_cli t.sys) (Systems.machine_name t.machine) t.workers t.cache_scale
    n_faults
