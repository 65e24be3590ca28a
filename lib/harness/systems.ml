open Chipsim

type machine_kind =
  | Amd_milan
  | Amd_milan_1s
  | Intel_spr
  | Custom of { name : string; topo : Topology.t }

type sys =
  | Charm
  | Charm_os_threads
  | Ring
  | Dw_native
  | Shoal
  | Asymsched
  | Sam
  | Os_default
  | Local_cache
  | Distributed_cache

let sys_name = function
  | Charm -> "charm"
  | Charm_os_threads -> "charm+std::async"
  | Ring -> "ring"
  | Dw_native -> "dw-native"
  | Shoal -> "shoal"
  | Asymsched -> "asymsched"
  | Sam -> "sam"
  | Os_default -> "os-default"
  | Local_cache -> "local-cache"
  | Distributed_cache -> "distributed-cache"

let cli_systems =
  [
    ("charm", Charm);
    ("charm-async", Charm_os_threads);
    ("ring", Ring);
    ("dw-native", Dw_native);
    ("shoal", Shoal);
    ("asymsched", Asymsched);
    ("sam", Sam);
    ("os-default", Os_default);
    ("local-cache", Local_cache);
    ("distributed-cache", Distributed_cache);
  ]

let cli_machines =
  [ ("amd", Amd_milan); ("amd1s", Amd_milan_1s); ("intel", Intel_spr) ]

let machine_name = function
  | Amd_milan -> "amd"
  | Amd_milan_1s -> "amd1s"
  | Intel_spr -> "intel"
  | Custom { name; _ } -> name

let topology kind ~cache_scale =
  match kind with
  | Amd_milan -> Presets.amd_milan ~scale:cache_scale ()
  | Amd_milan_1s -> Presets.amd_milan_1s ~scale:cache_scale ()
  | Intel_spr -> Presets.intel_spr ~scale:cache_scale ()
  | Custom { topo; _ } -> Presets.scale_topology topo ~scale:cache_scale

(* Custom machines always use the default (AMD-calibrated) latency
   profile: loading spr.topo is the same *geometry* as [-m intel] but not
   the same interconnect timings.  Ship profile selection in the topology
   file if that ever matters. *)
let base_profile = function
  | Amd_milan | Amd_milan_1s | Custom _ -> Latency.default_profile
  | Intel_spr -> Presets.intel_profile

let custom_machine_of_spec spec =
  let looks_like_path =
    String.length spec > 0
    && (Sys.file_exists spec
       || Filename.check_suffix spec ".topo"
       || String.contains spec '/')
  in
  if looks_like_path then
    match Topology.of_file spec with
    | Ok topo ->
        let name = Filename.remove_extension (Filename.basename spec) in
        Ok (Custom { name; topo })
    | Error m -> Error (Printf.sprintf "%s: %s" spec m)
  else
    match Topology.of_string spec with
    | Ok topo -> Ok (Custom { name = "custom"; topo })
    | Error m -> Error m

type instance = {
  env : Workloads.Exec_env.t;
  machine : Machine.t;
  charm : Charm.Runtime.t option;
}

let baseline_spec ~kind = function
  | Ring -> Baselines.Ring.spec ()
  | Dw_native ->
      {
        (Baselines.Ring.spec ()) with
        Baselines.Baseline.name = "dw-native";
        task_model =
          Engine.Sched.Os_threads { spawn_ns = 20_000.0; switch_ns = 2_000.0 };
      }
  | Shoal -> Baselines.Shoal.spec ()
  | Asymsched -> Baselines.Asymsched.spec ()
  | Sam -> Baselines.Sam.spec ~confused:(kind = Intel_spr) ()
  | Os_default -> Baselines.Os_default.spec ()
  | Local_cache -> Baselines.Static_policy.local_cache ()
  | Distributed_cache -> Baselines.Static_policy.distributed_cache ()
  | Charm | Charm_os_threads -> invalid_arg "Systems.baseline_spec: not a baseline"

let make ?(cache_scale = 1) ?charm_config sys kind ~n_workers () =
  let topo = topology kind ~cache_scale in
  match sys with
  | Charm | Charm_os_threads ->
      let machine = Machine.create ~profile:(base_profile kind) topo in
      let sched_config =
        match sys with
        | Charm_os_threads ->
            {
              Engine.Sched.default_config with
              Engine.Sched.task_model =
                Engine.Sched.Os_threads { spawn_ns = 20_000.0; switch_ns = 2_000.0 };
            }
        | _ -> Engine.Sched.default_config
      in
      let rt = Charm.Runtime.init ?config:charm_config ~sched_config machine ~n_workers in
      let env =
        {
          Workloads.Exec_env.name = sys_name sys;
          sched = Charm.Runtime.sched rt;
          alloc_shared =
            (fun ~elt_bytes ~count ->
              Charm.Runtime.alloc_shared rt ~elt_bytes ~count ());
          run = (fun main -> Charm.Runtime.run rt main);
        }
      in
      { env; machine; charm = Some rt }
  | _ ->
      (* a baseline ignores CHARM's knobs but still rejects bad ones *)
      Option.iter (fun c -> Charm.Config.validate c topo) charm_config;
      let spec = baseline_spec ~kind sys in
      let profile = spec.Baselines.Baseline.profile_adjust (base_profile kind) in
      let machine = Machine.create ~profile topo in
      let driver = Baselines.Baseline.init spec machine ~n_workers in
      let env =
        {
          Workloads.Exec_env.name = sys_name sys;
          sched = Baselines.Baseline.sched driver;
          alloc_shared =
            (fun ~elt_bytes ~count ->
              Baselines.Baseline.alloc_shared driver ~elt_bytes ~count ());
          run = (fun main -> Baselines.Baseline.run driver main);
        }
      in
      { env; machine; charm = None }

let report instance =
  let sched = instance.env.Workloads.Exec_env.sched in
  let makespan =
    (* max over workers' last busy clocks is what Sched.run returned; the
       cheapest faithful proxy here is the max worker clock *)
    let n = Engine.Sched.n_workers sched in
    let rec go w acc =
      if w >= n then acc
      else go (w + 1) (Float.max acc (Engine.Sched.worker_clock sched w))
    in
    go 0 0.0
  in
  Engine.Stats.collect instance.machine ~makespan_ns:makespan
