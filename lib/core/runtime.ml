open Chipsim
module Sched = Engine.Sched

type t = {
  config : Config.t;
  machine : Machine.t;
  sched : Sched.t;
  profiler : Profiler.t;
  controller : Controller.t;
  policy : Policy.t;
  health : Health_monitor.t;
  power_cap : Power_cap.t option;
  n_workers : int;
  mutable makespan : float;
}

(* charged to the worker per profiling check *)
let profiler_overhead_ns = 40.0

let init ?(config = Config.default) ?(sched_config = Sched.default_config)
    machine ~n_workers =
  let topo = Machine.topology machine in
  Config.validate config topo;
  if n_workers > Topology.num_cores topo then
    invalid_arg "Runtime.init: more workers than physical cores";
  let spread0 =
    let s = config.Config.initial_spread in
    if Placement.valid_spread topo ~spread_rate:s ~n_workers then s
    else Placement.min_valid_spread topo ~n_workers
  in
  let placement w =
    match Placement.core_of_worker topo ~spread_rate:spread0 ~n_workers ~worker:w with
    | Some core -> core
    | None -> invalid_arg "Runtime.init: no valid placement for the gang"
  in
  let sched = Sched.create ~config:sched_config machine ~n_workers ~placement in
  let profiler = Profiler.create machine ~n_workers in
  let controller = Controller.create config in
  let config = { config with Config.initial_spread = spread0 } in
  let policy = Policy.create config machine controller profiler ~n_workers in
  let health = Health_monitor.create machine ~n_workers in
  (* any energy feature — a cap or EDP-weighted placement — needs the
     per-quantum compute meters running; plain runs leave them off so the
     energy-free baselines stay bit-identical *)
  if config.Config.power_cap_mw > 0.0 || config.Config.energy_weight > 0.0 then
    Sched.set_energy sched true;
  let power_cap =
    if config.Config.power_cap_mw > 0.0 then
      Some
        (Power_cap.create machine ~cap_mw:config.Config.power_cap_mw
           ~sample_ns:config.Config.scheduler_timer_ns
           ~window_ns:(10.0 *. config.Config.scheduler_timer_ns))
    else None
  in
  Policy.set_health policy (Some (fun chiplet -> Health_monitor.sick health ~chiplet));
  (match power_cap with
  | Some pc ->
      Policy.set_power_oracle policy
        (Some (fun chiplet -> Power_cap.throttled pc ~chiplet))
  | None -> ());
  let t =
    { config; machine; sched; profiler; controller; policy; health; power_cap;
      n_workers; makespan = 0.0 }
  in
  let steal_rng = Engine.Rng.create 0x51ea1 in
  let hooks =
    {
      Sched.on_quantum_end =
        (fun sched worker ->
          (* the power controller samples and actuates on its own virtual
             cadence, independent of the profiler switch: a cap must hold
             even in profiling-off ablations *)
          (match power_cap with
          | Some pc ->
              let action =
                Power_cap.tick pc ~now_ns:(Sched.worker_clock sched worker)
              in
              (match (action, Sched.trace sched) with
              | Power_cap.Idle, _ | _, None -> ()
              | action, Some tr ->
                  let desc =
                    match action with
                    | Power_cap.Shed ch ->
                        Printf.sprintf "power-cap: shed chiplet %d to %.2fx \
                                        (%.0f mW over %g mW cap)"
                          ch (Power_cap.level pc ~chiplet:ch)
                          (Power_cap.power_mw pc) (Power_cap.cap_mw pc)
                    | Power_cap.Release ch ->
                        Printf.sprintf "power-cap: released chiplet %d to %.2fx"
                          ch (Power_cap.level pc ~chiplet:ch)
                    | Power_cap.Idle -> assert false
                  in
                  Engine.Trace.instant tr ~name:desc
                    ~at_ns:(Sched.worker_clock sched worker))
          | None -> ());
          if config.Config.profile_while_running then begin
            Sched.charge sched ~worker profiler_overhead_ns;
            (* health first: the policy tick right after should already
               see a freshly flagged chiplet *)
            Health_monitor.observe health ~worker
              ~core:(Sched.worker_core sched worker)
              ~now:(Sched.worker_clock sched worker);
            Policy.tick policy sched ~worker
          end);
      steal_order =
        (fun sched ~thief ->
          if config.Config.chiplet_first_steal then
            (Sched.no_hooks).Sched.steal_order sched ~thief
          else begin
            let n = Sched.n_workers sched in
            let others = Array.of_list (List.filter (fun w -> w <> thief) (List.init n Fun.id)) in
            Engine.Rng.shuffle steal_rng others;
            others
          end);
    }
  in
  Sched.set_hooks sched hooks;
  t

let sched t = t.sched
let machine t = t.machine

(* the clocks are virtual and deterministic, so the frontier is a stable
   timestamp for events with no single owning worker (mode switches) *)
let max_clock t =
  let m = ref 0.0 in
  for w = 0 to t.n_workers - 1 do
    m := Float.max !m (Sched.worker_clock t.sched w)
  done;
  !m

let attach_trace t tr =
  Sched.set_trace t.sched (Some tr);
  Policy.set_on_spread_change t.policy
    (fun ~worker ~old_spread ~new_spread ~at_ns ->
      Engine.Trace.spread_change tr ~worker ~old_spread ~new_spread ~at_ns);
  Controller.set_on_switch t.controller (fun ~from_mode ~to_mode ->
      Engine.Trace.mode_switch tr
        ~from_mode:(Config.approach_to_string from_mode)
        ~to_mode:(Config.approach_to_string to_mode)
        ~at_ns:(max_clock t));
  Health_monitor.set_on_event t.health (fun ~chiplet ~sick ~at_ns ->
      Engine.Trace.instant tr
        ~name:
          (Printf.sprintf "health: chiplet %d %s" chiplet
             (if sick then "sick" else "recovered"))
        ~at_ns;
      Engine.Trace.counter tr ~name:"health" ~at_ns
        ~series:(Health_monitor.counter_series t.health))
let config t = t.config
let n_workers t = t.n_workers
let policy t = t.policy
let power_cap t = t.power_cap
let profiler t = t.profiler
let health t = t.health

let alloc_shared t ?policy ~elt_bytes ~count () =
  Machine.alloc t.machine ?policy ~elt_bytes ~count ()

let run t main =
  ignore (Sched.spawn t.sched ~worker:0 main : Sched.task);
  let makespan = Sched.run t.sched in
  t.makespan <- Float.max t.makespan makespan;
  makespan

let all_do t f =
  for w = 0 to t.n_workers - 1 do
    ignore (Sched.spawn t.sched ~worker:w (fun ctx -> f ctx w) : Sched.task)
  done;
  let makespan = Sched.run t.sched in
  t.makespan <- Float.max t.makespan makespan;
  makespan

let finalize t =
  if Sched.check_enabled t.sched then Option.iter Power_cap.verify t.power_cap;
  Engine.Stats.collect t.machine ~makespan_ns:t.makespan
let last_makespan t = t.makespan
let barrier t = Engine.Barrier.create t.n_workers

module Api = struct
  let alloc ctx ~elt_bytes ~count () =
    (* Alg. 2 binds a worker's memory policy to its current core's node;
       task-side allocations therefore bind to the caller's socket. *)
    let machine = Sched.Ctx.machine ctx in
    let topo = Machine.topology machine in
    let node = Topology.socket_of_core topo (Sched.Ctx.core ctx) in
    Machine.alloc machine ~policy:(Simmem.Bind node) ~elt_bytes ~count ()

  let call = Engine.Par.call
  let call_sync = Engine.Par.call_sync
  let all_do = Engine.Par.all_do
  let parallel_for = Engine.Par.parallel_for
  let barrier_wait ctx b = Engine.Barrier.wait ctx b
end
