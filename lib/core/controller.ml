type decision = { threshold : float; mode : Config.approach }

type t = {
  config : Config.t;
  (* [Adaptive] until the first [decide] resolves a concrete mode:
     seeding it with the configured approach would make the first
     concrete resolution in [Adaptive] mode look like a switch *)
  mutable last_mode : Config.approach;
  mutable switches : int;
  mutable on_switch : from_mode:Config.approach -> to_mode:Config.approach -> unit;
}

let create config =
  {
    config;
    last_mode = Config.Adaptive;
    switches = 0;
    on_switch = (fun ~from_mode:_ ~to_mode:_ -> ());
  }

let set_on_switch t f = t.on_switch <- f

(* Approach-specific threshold scaling: location-centric delays spreading
   (high threshold), cache-centric triggers it eagerly (low threshold). *)
let location_scale = 4.0
let cache_scale = 0.25

let concrete_mode t ~remote ~remote_chiplet ~dram =
  match t.config.Config.approach with
  | (Config.Location_centric | Config.Cache_centric) as m -> m
  | Config.Adaptive ->
      let sticky = t.last_mode in
      if remote = 0 then sticky
      else begin
        let dram_share = float_of_int dram /. float_of_int remote in
        let chiplet_share = float_of_int remote_chiplet /. float_of_int remote in
        if dram_share > 0.5 then Config.Cache_centric
        else if chiplet_share > 0.6 then Config.Location_centric
        else sticky
      end

(* When the worker sits on degraded silicon, halving the threshold makes
   the policy spread away from it after roughly half the evidence — the
   hardware is known-bad, so the usual reluctance to migrate is wrong. *)
let degraded_scale = 0.5

let decide_mode t ~remote ~remote_chiplet ~dram =
  let mode = concrete_mode t ~remote ~remote_chiplet ~dram in
  let prev = t.last_mode in
  (* an [Adaptive] previous mode is the unresolved placeholder, not a
     direction — resolving it for the first time is not a switch *)
  if prev <> mode && prev <> Config.Adaptive then begin
    t.switches <- t.switches + 1;
    t.on_switch ~from_mode:prev ~to_mode:mode
  end;
  t.last_mode <- mode;
  mode

let threshold_of config ~degraded mode =
  let base = config.Config.rmt_chip_access_rate in
  let threshold =
    match mode with
    | Config.Location_centric -> base *. location_scale
    | Config.Cache_centric -> base *. cache_scale
    | Config.Adaptive -> base
  in
  if degraded then threshold *. degraded_scale else threshold

let decide t ?(degraded = false) sample =
  let mode =
    decide_mode t ~remote:(Profiler.remote_events sample)
      ~remote_chiplet:sample.Profiler.remote_chiplet ~dram:sample.Profiler.dram
  in
  { threshold = threshold_of t.config ~degraded mode; mode }

let mode_switches t = t.switches
