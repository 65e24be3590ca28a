open Chipsim

(* Detection parameters.  The monitor is a heuristic consumer of the same
   PMU deltas the profiler reads; the constants trade detection latency
   against false positives under ordinary contention noise. *)
let alpha = 0.3  (* fast EWMA smoothing for per-chiplet ns/access *)
let alpha_slow = 0.05  (* slow EWMA: the chiplet's own healthy baseline *)

(* A chiplet is flagged only when BOTH hold for [strike_limit] consecutive
   samples: its fast EWMA jumped [jump_ratio] above its own slow baseline
   (faults are step changes; static workload heterogeneity is not) AND it
   is [sick_ratio] above the cross-chiplet median (so a machine-wide phase
   change does not flag everyone).  Either test alone is too noisy: under
   a mixed tenant load the healthy cross-chiplet spread of ns/access
   reaches ~2.5x.  The EWMA path only has to catch *silent* degradation —
   link / L3 / bandwidth faults multiply per-access latency by 3x and
   more — because DVFS and hotplug arrive through the instant OS-visible
   path below.  The baseline freezes while sick, so recovery is judged
   against the pre-fault level; the cost is that very gradual creep gets
   absorbed as the new normal. *)
let jump_ratio = 2.0  (* fast EWMA vs own frozen baseline *)
let sick_ratio = 1.6  (* fast EWMA vs cross-chiplet median *)
let recover_ratio = 1.3  (* back within this of baseline counts healthy *)
let strike_limit = 4  (* consecutive over-ratio samples before flagging *)
let recovery_samples = 8  (* consecutive healthy samples before unflagging *)
let min_accesses = 16  (* PMU delta below this is noise; keep accumulating *)
let min_samples = 4  (* per-chiplet EWMA updates before it can be judged *)

type event = { chiplet : int; sick : bool; at_ns : float }

(* The float state lives in float arrays on [t] (fast EWMA, slow
   baseline, per-worker memory time), not in these records: a float
   field of a mixed record is boxed, so every sample would allocate. *)
type chiplet_state = {
  mutable samples : int;
  mutable strikes : int;
  mutable healthy_streak : int;
  mutable sick : bool;
}

type worker_state = {
  mutable last_core : int;
  mutable last_accesses : int;
}

type t = {
  machine : Machine.t;
  chiplets : chiplet_state array;
  ewma : float array;  (* per chiplet: fast EWMA of ns per access *)
  baseline : float array;  (* per chiplet: slow EWMA, frozen while sick *)
  workers : worker_state array;
  last_mem_ns : float array;  (* per worker *)
  scratch : float array;  (* [median_ewma]'s sort buffer, one slot per chiplet *)
  mutable mods_generation : int;
  mutable first_flag_ns : float option;
  mutable events : event list;  (* newest first *)
  mutable on_event : chiplet:int -> sick:bool -> at_ns:float -> unit;
}

let create machine ~n_workers =
  if n_workers <= 0 then
    invalid_arg "Health_monitor.create: n_workers must be positive";
  let topo = Machine.topology machine in
  {
    machine;
    chiplets =
      Array.init (Topology.num_chiplets topo) (fun _ ->
          {
            samples = 0;
            strikes = 0;
            healthy_streak = 0;
            sick = false;
          });
    ewma = Array.make (Topology.num_chiplets topo) 0.0;
    baseline = Array.make (Topology.num_chiplets topo) 0.0;
    workers = Array.init n_workers (fun _ -> { last_core = -1; last_accesses = 0 });
    last_mem_ns = Array.make n_workers 0.0;
    scratch = Array.make (Topology.num_chiplets topo) 0.0;
    mods_generation = -1;
    first_flag_ns = None;
    events = [];
    on_event = (fun ~chiplet:_ ~sick:_ ~at_ns:_ -> ());
  }

let set_on_event t f = t.on_event <- f
let sick t ~chiplet = t.chiplets.(chiplet).sick

let sick_chiplets t =
  let acc = ref [] in
  for c = Array.length t.chiplets - 1 downto 0 do
    if t.chiplets.(c).sick then acc := c :: !acc
  done;
  !acc

let any_sick t = Array.exists (fun c -> c.sick) t.chiplets
let first_flag_ns t = t.first_flag_ns
let events t = List.rev t.events
let ewma t ~chiplet = t.ewma.(chiplet)

let flag t ~chiplet ~sick ~at_ns =
  let st = t.chiplets.(chiplet) in
  if st.sick <> sick then begin
    st.sick <- sick;
    st.strikes <- 0;
    st.healthy_streak <- 0;
    if sick && t.first_flag_ns = None then t.first_flag_ns <- Some at_ns;
    t.events <- { chiplet; sick; at_ns } :: t.events;
    t.on_event ~chiplet ~sick ~at_ns
  end

(* Total data accesses a core has performed, per the PMU. *)
let accesses_of_core t ~core =
  let pmu = Machine.pmu t.machine in
  Pmu.read pmu ~core Pmu.L2_hit
  + Pmu.read pmu ~core Pmu.L3_local_hit
  + Pmu.read pmu ~core Pmu.Fill_remote_chiplet
  + Pmu.read pmu ~core Pmu.Fill_remote_numa
  + Pmu.read pmu ~core Pmu.Dram_local
  + Pmu.read pmu ~core Pmu.Dram_remote

(* DVFS and hotplug are OS-visible on real machines (sysfs); treating
   them as instantly known keeps the EWMA path for what is genuinely
   silent (latency degradation).  Re-derived only when the modifier
   generation moved. *)
let sync_os_visible t ~now =
  let mods = Machine.modifiers t.machine in
  let gen = Modifiers.generation mods in
  if gen <> t.mods_generation then begin
    t.mods_generation <- gen;
    let topo = Machine.topology t.machine in
    let cpc = topo.Topology.cores_per_chiplet in
    Array.iteri
      (fun chiplet st ->
        let impaired =
          Modifiers.chiplet_os_impaired mods ~chiplet ~cores_per_chiplet:cpc
        in
        if impaired && not st.sick then flag t ~chiplet ~sick:true ~at_ns:now)
      t.chiplets
  end

(* Median fast EWMA of the chiplets with enough samples to be judged, or
   0.0 when fewer than two have (no peers to compare against).  The
   eligible values are insertion-sorted into [t.scratch], and the function
   inlines into [judge], so neither the buffer nor the result allocates. *)
let[@inline] median_ewma t =
  let vals = t.scratch in
  let n = ref 0 in
  for c = 0 to Array.length t.chiplets - 1 do
    if t.chiplets.(c).samples >= min_samples then begin
      let v = t.ewma.(c) in
      let j = ref !n in
      while !j > 0 && Float.compare vals.(!j - 1) v > 0 do
        vals.(!j) <- vals.(!j - 1);
        decr j
      done;
      vals.(!j) <- v;
      incr n
    end
  done;
  if !n < 2 then 0.0 else vals.(!n / 2)

let judge t ~chiplet ~now =
  let st = t.chiplets.(chiplet) in
  let ewma = t.ewma.(chiplet) and baseline = t.baseline.(chiplet) in
  if st.samples >= min_samples && baseline > 0.0 then
    if st.sick then begin
      (* sticky: judged against the frozen pre-fault baseline, and the
         flag only clears after a run of healthy samples, or the gang
         would bounce back and forth *)
      if ewma <= recover_ratio *. baseline then begin
        st.healthy_streak <- st.healthy_streak + 1;
        if
          st.healthy_streak >= recovery_samples
          && not
               (Modifiers.chiplet_impaired
                  (Machine.modifiers t.machine)
                  ~chiplet
                  ~cores_per_chiplet:
                    (Machine.topology t.machine).Topology.cores_per_chiplet)
        then flag t ~chiplet ~sick:false ~at_ns:now
      end
      else st.healthy_streak <- 0
    end
    else begin
      (* the median is needed only once the jump test has passed *)
      if
        ewma > jump_ratio *. baseline
        &&
        let med = median_ewma t in
        (* no peers to compare (median 0): trust the jump test *)
        if med > 0.0 then ewma > sick_ratio *. med else true
      then begin
        st.strikes <- st.strikes + 1;
        if st.strikes >= strike_limit then flag t ~chiplet ~sick:true ~at_ns:now
      end
      else st.strikes <- 0
    end

let observe t ~worker ~core ~now =
  sync_os_visible t ~now;
  let ws = t.workers.(worker) in
  let accesses = accesses_of_core t ~core in
  let mem_ns = Machine.mem_ns t.machine ~core in
  if ws.last_core <> core then begin
    (* migrated (or first sample): the old baseline refers to another
       core's counters — rebase without producing a sample *)
    ws.last_core <- core;
    t.last_mem_ns.(worker) <- mem_ns;
    ws.last_accesses <- accesses
  end
  else begin
    let da = accesses - ws.last_accesses in
    let dmem = mem_ns -. t.last_mem_ns.(worker) in
    if da >= min_accesses && dmem > 0.0 then begin
      let ns_per_access = dmem /. float_of_int da in
      let topo = Machine.topology t.machine in
      let chiplet = Topology.chiplet_of_core topo core in
      let st = t.chiplets.(chiplet) in
      t.ewma.(chiplet) <-
        (if st.samples = 0 then ns_per_access
         else (alpha *. ns_per_access) +. ((1.0 -. alpha) *. t.ewma.(chiplet)));
      if not st.sick then
        t.baseline.(chiplet) <-
          (if st.samples = 0 then ns_per_access
           else
             (alpha_slow *. ns_per_access)
             +. ((1.0 -. alpha_slow) *. t.baseline.(chiplet)));
      st.samples <- st.samples + 1;
      t.last_mem_ns.(worker) <- mem_ns;
      ws.last_accesses <- accesses;
      judge t ~chiplet ~now
    end
  end

let counter_series t =
  let acc = ref [] in
  for c = Array.length t.chiplets - 1 downto 0 do
    let st = t.chiplets.(c) in
    if st.samples > 0 || st.sick then
      acc :=
        (Printf.sprintf "chiplet%d_ns_per_access" c, t.ewma.(c))
        :: (Printf.sprintf "chiplet%d_sick" c, if st.sick then 1.0 else 0.0)
        :: !acc
  done;
  !acc
