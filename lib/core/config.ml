type approach = Location_centric | Cache_centric | Adaptive

type t = {
  scheduler_timer_ns : float;
  rmt_chip_access_rate : float;
  approach : approach;
  initial_spread : int;
  profile_while_running : bool;
  chiplet_first_steal : bool;
  decentralized : bool;
  energy_weight : float;
  power_cap_mw : float;
}

let default =
  {
    scheduler_timer_ns = 50_000.0;
    rmt_chip_access_rate = 300.0;
    approach = Adaptive;
    initial_spread = 1;
    profile_while_running = true;
    chiplet_first_steal = true;
    decentralized = true;
    energy_weight = 0.0;
    power_cap_mw = 0.0;
  }

let validate t topo =
  if t.scheduler_timer_ns <= 0.0 then
    invalid_arg "Config: scheduler_timer_ns must be positive";
  if t.rmt_chip_access_rate < 0.0 then
    invalid_arg "Config: rmt_chip_access_rate must be non-negative";
  let chiplets = Chipsim.Topology.num_chiplets topo in
  if t.initial_spread < 1 || t.initial_spread > chiplets then
    invalid_arg "Config: initial_spread out of [1, chiplets]";
  if t.energy_weight < 0.0 || not (Float.is_finite t.energy_weight) then
    invalid_arg "Config: energy_weight must be finite and non-negative";
  if t.power_cap_mw < 0.0 || not (Float.is_finite t.power_cap_mw) then
    invalid_arg "Config: power_cap_mw must be finite and non-negative"

let approach_to_string = function
  | Location_centric -> "location-centric"
  | Cache_centric -> "cache-centric"
  | Adaptive -> "adaptive"
