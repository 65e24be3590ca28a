open Chipsim

type stats = {
  ticks : int;
  spreads : int;
  contracts : int;
  migrations : int;
  skipped : int;
  health_migrations : int;
}

type t = {
  config : Config.t;
  machine : Machine.t;
  controller : Controller.t;
  profiler : Profiler.t;
  n_workers : int;
  spread : int array;  (* per worker: its spread_rate *)
  last_check : float array;
      (* per worker: when it last evaluated; a float array, as a float
         field of a mixed record boxes on every store *)
  min_spread : int;
  max_spread : int;
      (* Alg. 1's spread bounds: fixed by the topology and gang size *)
  targets : int array;
      (* Alg. 2 target core per (worker, spread_rate), -1 where the
         spread is invalid; index [worker * (chiplets + 1) + spread] *)
  thresholds : float array;
      (* the controller's threshold per [threshold_slot] *)
  mutable s_ticks : int;
  mutable s_spreads : int;
  mutable s_contracts : int;
  mutable s_migrations : int;
  mutable s_skipped : int;
  mutable s_health_migrations : int;
  mutable health : (int -> bool) option;  (* chiplet -> currently sick? *)
  mutable power_hot : (int -> bool) option;
      (* chiplet -> throttled by the power-cap controller?  Only
         consulted when energy_weight > 0, so capped-but-unweighted runs
         place identically to pre-energy CHARM *)
  mutable on_spread_change :
    worker:int -> old_spread:int -> new_spread:int -> at_ns:float -> unit;
}

let modes = [| Config.Location_centric; Config.Cache_centric; Config.Adaptive |]

let threshold_slot mode ~degraded =
  (match mode with
  | Config.Location_centric -> 0
  | Config.Cache_centric -> 2
  | Config.Adaptive -> 4)
  + if degraded then 1 else 0

let create config machine controller profiler ~n_workers =
  let topo = Machine.topology machine in
  Config.validate config topo;
  let chiplets = topo.Topology.chiplets_per_socket in
  {
    config;
    machine;
    controller;
    profiler;
    n_workers;
    spread = Array.make n_workers config.Config.initial_spread;
    last_check = Array.make n_workers 0.0;
    min_spread = Placement.min_valid_spread topo ~n_workers;
    (* general work never spreads onto accelerator-only chiplets while
       the gang fits on the general ones *)
    max_spread = Placement.max_general_spread topo ~n_workers;
    targets =
      Array.init (n_workers * (chiplets + 1)) (fun i ->
          let worker = i / (chiplets + 1) and spread_rate = i mod (chiplets + 1) in
          match Placement.core_of_worker topo ~spread_rate ~n_workers ~worker with
          | Some core -> core
          | None -> -1);
    thresholds =
      Array.init 6 (fun i ->
          Controller.threshold_of config ~degraded:(i mod 2 = 1) modes.(i / 2));
    s_ticks = 0;
    s_spreads = 0;
    s_contracts = 0;
    s_migrations = 0;
    s_skipped = 0;
    s_health_migrations = 0;
    health = None;
    power_hot = None;
    on_spread_change =
      (fun ~worker:_ ~old_spread:_ ~new_spread:_ ~at_ns:_ -> ());
  }

(* Contraction happens only well below the spread trigger: CHARM
   "preserves the initial task-to-worker-to-core mapping as much as
   possible" and migrates "only when significant inefficiency is
   detected" (paper 4.6) — without this dead band the policy oscillates
   at the capacity boundary and migration churn eats the gains. *)
let hysteresis = 0.25

let spread_rate t ~worker = t.spread.(worker)
let set_health t f = t.health <- f
let chiplet_sick t chiplet =
  match t.health with None -> false | Some sick -> sick chiplet

let set_power_oracle t f = t.power_hot <- f

let chiplet_hot t chiplet =
  t.config.Config.energy_weight > 0.0
  && match t.power_hot with None -> false | Some hot -> hot chiplet

(* sick and hot chiplets get the same treatment: vetoed as targets, fled
   when occupied — being throttled for power is operationally the same
   signal as being throttled by a fault *)
let chiplet_avoid t chiplet = chiplet_sick t chiplet || chiplet_hot t chiplet
let set_on_spread_change t f = t.on_spread_change <- f

let stats t =
  {
    ticks = t.s_ticks;
    spreads = t.s_spreads;
    contracts = t.s_contracts;
    migrations = t.s_migrations;
    skipped = t.s_skipped;
    health_migrations = t.s_health_migrations;
  }

(* Alg. 2 application: compute the target core and migrate if it is free.
   An occupied target (transient, while neighbours still hold older
   spread_rates) skips the move; the next timer cycle retries. *)
let update_location t sched ~worker ~core =
  let topo = Machine.topology t.machine in
  let chiplets = topo.Topology.chiplets_per_socket in
  let spread = t.spread.(worker) in
  let target =
    if spread < 1 || spread > chiplets then -1
    else t.targets.((worker * (chiplets + 1)) + spread)
  in
  if target < 0 then t.s_skipped <- t.s_skipped + 1
  else if target = core then ()
  else if
    chiplet_avoid t (Topology.chiplet_of_core topo target)
    && not (chiplet_avoid t (Topology.chiplet_of_core topo core))
  then
    (* health/power veto: never move a clean worker onto a sick or
       power-throttled chiplet, even when Alg. 2 nominates it — retried
       once the flag clears *)
    t.s_skipped <- t.s_skipped + 1
  else
    match Engine.Sched.worker_of_core sched target with
    | Some _other -> t.s_skipped <- t.s_skipped + 1
    | None ->
        Engine.Sched.migrate sched ~worker ~core:target;
        t.s_migrations <- t.s_migrations + 1;
        Profiler.rebase t.profiler ~worker ~core:target

(* A worker stuck on a sick chiplet ignores Alg. 2 and flees to the
   nearest free core on a healthy chiplet.  Alg. 2 keeps nominating cores
   from the contiguous gang footprint, so without this escape hatch the
   gang would sit on the degraded silicon forever. *)
let flee_sick_chiplet t sched ~worker ~core =
  let topo = Machine.topology t.machine in
  if chiplet_avoid t (Topology.chiplet_of_core topo core) then begin
    let cores = Topology.num_cores topo in
    let best = ref (-1) and best_rank = ref max_int and best_speed = ref 0.0 in
    for c = 0 to cores - 1 do
      if
        (not (chiplet_avoid t (Topology.chiplet_of_core topo c)))
        && Engine.Sched.worker_of_core sched c = None
        && Modifiers.core_online (Machine.modifiers t.machine) c
      then begin
        let r =
          match Latency.classify topo core c with
          | Latency.Same_core -> 0
          | Latency.Same_chiplet -> 1
          | Latency.Same_group -> 2
          | Latency.Same_socket -> 3
          | Latency.Cross_socket -> 4
        in
        (* accelerator-only chiplets are a last resort for fleeing
           general work, ranked past any general-task core *)
        let r =
          if Topology.chiplet_accepts_general topo (Topology.chiplet_of_core topo c)
          then r
          else r + 8
        in
        let s =
          let speed = Topology.core_speed topo c in
          let w = t.config.Config.energy_weight in
          if w > 0.0 then begin
            (* EDP-aware score: discount a candidate by its kind's energy
               density, so with rising energy_weight the policy trades
               peak speed for efficient silicon (a little core's low
               density can beat a big core's raw speed).  With w = 0 this
               is the plain speed tie-break. *)
            let density =
              (Topology.spec_of_kind topo (Topology.kind_of_core topo c))
                .Topology.energy_pj
            in
            speed /. (1.0 +. (w *. density))
          end
          else speed
        in
        (* equal-distance candidates: prefer the faster kind (strict >, so
           homogeneous machines still pick the lowest-numbered core) *)
        if r < !best_rank || (r = !best_rank && s > !best_speed) then begin
          best_rank := r;
          best_speed := s;
          best := c
        end
      end
    done;
    if !best >= 0 then begin
      Engine.Sched.migrate sched ~worker ~core:!best;
      t.s_migrations <- t.s_migrations + 1;
      t.s_health_migrations <- t.s_health_migrations + 1;
      Profiler.rebase t.profiler ~worker ~core:!best
    end
  end

(* One Alg. 1 evaluation.  The clock is read here, not passed in, and
   the sample, the controller's decision and the spread bounds come
   from ints and tables, so a tick allocates nothing unless the spread
   changes.  [forced] floors the elapsed time at one timer period. *)
let evaluate t sched ~worker ~forced =
  let now = Engine.Sched.worker_clock sched worker in
  let timer = t.config.Config.scheduler_timer_ns in
  let elapsed =
    if forced then Float.max (now -. t.last_check.(worker)) timer
    else now -. t.last_check.(worker)
  in
  let core = Engine.Sched.worker_core sched worker in
  t.s_ticks <- t.s_ticks + 1;
  let remote_chiplet = Profiler.since t.profiler ~worker ~core Profiler.Remote_chiplet
  and dram = Profiler.since t.profiler ~worker ~core Profiler.Dram in
  let remote =
    remote_chiplet + Profiler.since t.profiler ~worker ~core Profiler.Remote_numa + dram
  in
  let rate = float_of_int remote *. timer /. elapsed in
  let degraded =
    chiplet_sick t (Topology.chiplet_of_core (Machine.topology t.machine) core)
  in
  let mode = Controller.decide_mode t.controller ~remote ~remote_chiplet ~dram in
  let threshold = t.thresholds.(threshold_slot mode ~degraded) in
  let spread = t.spread.(worker) in
  if rate >= threshold then begin
    if spread < t.max_spread then begin
      t.spread.(worker) <- spread + 1;
      t.s_spreads <- t.s_spreads + 1;
      t.on_spread_change ~worker ~old_spread:spread ~new_spread:(spread + 1)
        ~at_ns:now
    end
  end
  else if rate < hysteresis *. threshold && spread > t.min_spread then begin
    (* Alg. 1 decrements to 1, but values below the Alg. 2 bounds check can
       never be applied; clamping at the smallest valid spread avoids a
       long invalid-retry climb when the rate rises again. *)
    t.spread.(worker) <- spread - 1;
    t.s_contracts <- t.s_contracts + 1;
    t.on_spread_change ~worker ~old_spread:spread ~new_spread:(spread - 1)
      ~at_ns:now
  end;
  update_location t sched ~worker ~core:(Engine.Sched.worker_core sched worker);
  flee_sick_chiplet t sched ~worker
    ~core:(Engine.Sched.worker_core sched worker);
  t.last_check.(worker) <- now;
  let current_core = Engine.Sched.worker_core sched worker in
  Profiler.reset t.profiler ~worker ~core:current_core

(* Centralized ablation (DESIGN.md #1): worker 0 is a global arbiter that
   collects every worker's counters (paying a cross-core read per worker —
   the coordination cost the paper's decentralization avoids), averages
   the rate, and pushes one uniform spread_rate to the whole gang. *)
let centralized_evaluate t sched ~now ~elapsed =
  let machine = t.machine in
  t.s_ticks <- t.s_ticks + 1;
  let arbiter_core = Engine.Sched.worker_core sched 0 in
  let total = ref 0 in
  let agg = ref { Profiler.local_hits = 0; remote_chiplet = 0; remote_numa = 0; dram = 0 } in
  for w = 0 to t.n_workers - 1 do
    let core = Engine.Sched.worker_core sched w in
    let sample = Profiler.read t.profiler ~worker:w ~core in
    total := !total + Profiler.remote_events sample;
    agg :=
      {
        Profiler.local_hits = !agg.Profiler.local_hits + sample.Profiler.local_hits;
        remote_chiplet = !agg.Profiler.remote_chiplet + sample.Profiler.remote_chiplet;
        remote_numa = !agg.Profiler.remote_numa + sample.Profiler.remote_numa;
        dram = !agg.Profiler.dram + sample.Profiler.dram;
      };
    (* global data collection: one cross-core transfer per worker *)
    Engine.Sched.charge sched ~worker:0 (Machine.core_to_core_ns machine arbiter_core core)
  done;
  let rate =
    float_of_int !total /. float_of_int t.n_workers
    *. t.config.Config.scheduler_timer_ns /. elapsed
  in
  let decision = Controller.decide t.controller !agg in
  let old_global = t.spread.(0) in
  let global =
    if rate >= decision.Controller.threshold then begin
      if old_global < t.max_spread then begin
        t.s_spreads <- t.s_spreads + 1;
        old_global + 1
      end
      else old_global
    end
    else if rate < hysteresis *. decision.Controller.threshold
            && old_global > t.min_spread
    then begin
      t.s_contracts <- t.s_contracts + 1;
      old_global - 1
    end
    else old_global
  in
  if global <> old_global then
    (* one event for the gang: the arbiter decides, everyone follows *)
    t.on_spread_change ~worker:0 ~old_spread:old_global ~new_spread:global
      ~at_ns:now;
  for w = 0 to t.n_workers - 1 do
    t.spread.(w) <- global;
    update_location t sched ~worker:w ~core:(Engine.Sched.worker_core sched w);
    t.last_check.(w) <- now;
    Profiler.reset t.profiler ~worker:w ~core:(Engine.Sched.worker_core sched w)
  done

let tick t sched ~worker =
  if t.config.Config.profile_while_running then begin
    if t.config.Config.decentralized then begin
      let now = Engine.Sched.worker_clock sched worker in
      if now -. t.last_check.(worker) >= t.config.Config.scheduler_timer_ns then
        evaluate t sched ~worker ~forced:false
    end
    else if worker = 0 then begin
      let now = Engine.Sched.worker_clock sched 0 in
      let elapsed = now -. t.last_check.(0) in
      if elapsed >= t.config.Config.scheduler_timer_ns then
        centralized_evaluate t sched ~now ~elapsed
    end
  end

(* the elapsed time is clamped to one full timer period, not 1 ns: a
   force-tick right after a timer tick would otherwise scale the raw
   counter by ~timer_ns and trigger a bogus spread.  With this floor,
   rate <= raw counter. *)
let force_tick t sched ~worker = evaluate t sched ~worker ~forced:true
