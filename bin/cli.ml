(* The command-line front end shared by charm_run, charm_serve and
   charm_fuzz: the flags they have in common, the machine and runtime
   set-up behind them, and one error guard.  Rejected input exits 2 with
   a one-line message; an invariant violation exits 3. *)

open Cmdliner
module Sys_ = Harness.Systems
module Plant = Chipsim.Invariant.Plant

type common = {
  sys : Sys_.sys;
  machine : Sys_.machine_kind;
  topology : string option;
  workers : int;
  cache_scale : int;
  energy : bool;
  energy_weight : float;
  power_cap : float;
  trace : string option;
  faults : string option;
  check : bool;
  plant : Plant.t option;
}

let plant =
  Arg.(
    value
    & opt (some (enum Plant.names)) None
    & info [ "plant" ] ~docv:"BUG"
        ~doc:
          "Plant a deliberate bug so --check (or the fuzzer) can prove the \
           invariants catch it: $(b,skip-ready-clamp) (the scheduler skips \
           the ready-at causality clamp), $(b,vote-skip) (the replica voter \
           returns replica 0's token unchecked; trips only with 3-replica \
           tenants over >= 3 chiplets), $(b,drop-relocated) or \
           $(b,route-offline) (fleet routing bugs). Testing hook; do not \
           use for measurements.")

let common ~workers =
  let sys =
    Arg.(value & opt (enum Sys_.cli_systems) Sys_.Charm & info [ "s"; "system" ] ~doc:"Runtime system.")
  in
  let machine =
    Arg.(value & opt (enum Sys_.cli_machines) Sys_.Amd_milan & info [ "m"; "machine" ] ~doc:"Machine model.")
  in
  let topology =
    Arg.(
      value
      & opt (some string) None
      & info [ "topology" ] ~docv:"SPEC"
          ~doc:
            "Data-driven machine topology overriding $(b,-m): a path to a \
             topology file (see examples/topologies/) or an inline \
             ';'-separated spec. Supports heterogeneous chiplet kinds \
             (big/little/accel) and per-chiplet link overrides.")
  in
  let workers =
    Arg.(value & opt int workers & info [ "n"; "workers" ] ~doc:"Worker threads.")
  in
  let cache_scale =
    Arg.(value & opt int 16 & info [ "cache-scale" ] ~doc:"Divide cache capacities by this factor.")
  in
  let energy =
    Arg.(
      value & flag
      & info [ "energy" ]
          ~doc:
            "Turn per-quantum compute-energy accounting on (memory energy \
             is always metered); reports gain the compute term. Virtual \
             time is unaffected, so latencies match an accounting-off run \
             exactly.")
  in
  let energy_weight =
    Arg.(
      value & opt float 0.0
      & info [ "energy-weight" ] ~docv:"W"
          ~doc:
            "EDP-aware placement weight for CHARM's policy: flee-migration \
             scoring divides each chiplet's speed by (1 + $(docv) x the \
             kind's energy density), steering hot tasks toward efficient \
             silicon. Implies --energy. 0 disables.")
  in
  let power_cap =
    Arg.(
      value & opt float 0.0
      & info [ "power-cap" ] ~docv:"MW"
          ~doc:
            "Machine power cap in simulated milliwatts (1 mW = 1 pJ/ns). \
             CHARM's controller watches a sliding-window power estimate and \
             sheds the hottest chiplet's frequency (DVFS actuator) when the \
             cap is exceeded, releasing throttles once comfortably below. \
             Implies --energy. 0 disables.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON of the run (task quanta, \
             steals, parks, migrations, spread changes; serving adds job \
             admit/shed/start/finish instants and a fill-class counter \
             track) to $(docv); deterministic for a fixed seed. A text \
             summary goes to stderr.")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault schedule: either an inline spec or a path \
             to a spec file. Entries are ';'- or newline-separated \
             $(i,TIME_US:KIND:ARGS) — core-off/core-on:CORE, \
             dvfs:CORE:SPEED, l3-ways:CHIPLET:WAYS, link:CHIPLET:MULT, \
             xsocket:MULT, membw:NODE:FACTOR, corrupt:SEED (poison one \
             replicated job's result token) — plus rand:SEED:N:HORIZON_US \
             for seeded random events.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Run with executable invariants on: scheduler causality and \
             per-core quantum ordering, the machine model's conservation \
             laws (fill classes, memory-channel bytes, L3 way bounds) and, \
             when serving, admission/completion conservation. A violation \
             aborts with exit code 3.")
  in
  let make sys machine topology workers cache_scale energy energy_weight
      power_cap trace faults check plant =
    { sys; machine; topology; workers; cache_scale; energy; energy_weight;
      power_cap; trace; faults; check; plant }
  in
  Term.(
    const make $ sys $ machine $ topology $ workers $ cache_scale $ energy
    $ energy_weight $ power_cap $ trace $ faults $ check $ plant)

let graph_scale ~default =
  Arg.(value & opt int default & info [ "graph-scale" ] ~doc:"log2 of graph vertices.")

let seed_info =
  Arg.info [ "seed" ]
    ~doc:"Seed for every random generator (inputs, arrivals, job streams)."

let seed ~default = Arg.(value & opt int default & seed_info)
let seed_opt = Arg.(value & opt (some int) None & seed_info)

(* an energy knob is set: a NaN or negative value counts, so the
   validation behind [instance] sees and rejects it *)
let energy_on c = c.energy || c.energy_weight <> 0.0 || c.power_cap <> 0.0

(* --faults and --faults-shard accept the spec inline or as a path to a
   spec file *)
let fault_schedule ~what ~topo spec =
  let text =
    if Sys.file_exists spec && not (Sys.is_directory spec) then
      In_channel.with_open_bin spec In_channel.input_all
    else spec
  in
  match Faults.Schedule.parse ~topo text with
  | Ok schedule -> schedule
  | Error msg -> Printf.ksprintf invalid_arg "bad %s: %s" what msg

(* a runtime system on a fresh machine, with the energy, check and fault
   flags applied *)
let instance c machine =
  let charm_config =
    if c.energy_weight <> 0.0 || c.power_cap <> 0.0 then
      Some
        {
          Charm.Config.default with
          Charm.Config.energy_weight = c.energy_weight;
          power_cap_mw = c.power_cap;
        }
    else None
  in
  let inst =
    Sys_.make ?charm_config ~cache_scale:c.cache_scale c.sys machine
      ~n_workers:c.workers ()
  in
  let sched = inst.Sys_.env.Workloads.Exec_env.sched in
  (* CHARM's runtime flips the meter on when a cap/weight is set; bare
     --energy (or a non-CHARM system) turns accounting on directly *)
  if energy_on c then Engine.Sched.set_energy sched true;
  if c.check then Engine.Sched.set_check sched true;
  Option.iter
    (fun spec ->
      let topo = Chipsim.Machine.topology inst.Sys_.machine in
      ignore
        (Faults.Injector.attach sched (fault_schedule ~what:"--faults spec" ~topo spec)
          : Faults.Injector.t))
    c.faults;
  inst

let save_trace tr file =
  Engine.Trace.save tr file;
  Printf.eprintf "wrote %d trace events to %s (load in chrome://tracing)\n%s"
    (Engine.Trace.num_events tr) file (Engine.Trace.summary tr)

(* Activate --plant, fold --topology over -m, and run [f] on the machine
   under the guard. *)
let run prog c f =
  Plant.set c.plant;
  let machine () =
    match c.topology with
    | None -> c.machine
    | Some spec -> (
        match Sys_.custom_machine_of_spec spec with
        | Ok m -> m
        | Error msg -> invalid_arg ("bad --topology spec: " ^ msg))
  in
  match f (machine ()) with
  | () -> ()
  | exception Invalid_argument msg ->
      (* rejected configuration: a user error, not a crash *)
      Printf.eprintf "%s: %s\n" prog msg;
      exit 2
  | exception Chipsim.Invariant.Violation msg ->
      Printf.eprintf "%s: INVARIANT VIOLATION: %s\n" prog msg;
      exit 3
