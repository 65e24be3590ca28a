type t = {
  cores : int;
  chiplets : int;
  nodes : int;
  core_speed : float array;
  core_online : bool array;
  link_mult : float array;  (* per chiplet, I/O-die link latency multiplier *)
  mutable xsocket_mult : float;
  mutable corruptions : int list;
      (* armed result-corruption seeds, FIFO: a corruption fault arms one,
         the next replica result computed consumes it *)
  mutable generation : int;
}

let create ~cores ~chiplets ~nodes =
  if cores <= 0 || chiplets <= 0 || nodes <= 0 then
    invalid_arg "Modifiers.create: counts must be positive";
  {
    cores;
    chiplets;
    nodes;
    core_speed = Array.make cores 1.0;
    core_online = Array.make cores true;
    link_mult = Array.make chiplets 1.0;
    xsocket_mult = 1.0;
    corruptions = [];
    generation = 0;
  }

let check name i n = if i < 0 || i >= n then invalid_arg ("Modifiers: " ^ name ^ " out of range")

let touch t = t.generation <- t.generation + 1
let generation t = t.generation

let core_speed t core =
  check "core" core t.cores;
  t.core_speed.(core)

(* The floor keeps a throttled core from stalling virtual time: even a
   thermally wedged core retires instructions eventually. *)
let min_speed = 0.05

let set_core_speed t core speed =
  check "core" core t.cores;
  t.core_speed.(core) <- Float.max min_speed speed;
  touch t

let core_online t core =
  check "core" core t.cores;
  t.core_online.(core)

let set_core_online t core on =
  check "core" core t.cores;
  if t.core_online.(core) <> on then begin
    t.core_online.(core) <- on;
    touch t
  end

let link_mult t chiplet =
  check "chiplet" chiplet t.chiplets;
  t.link_mult.(chiplet)

(* small enough to cross-module inline, so the float comes back unboxed on
   the per-access hot path; the caller guarantees the index *)
let unsafe_link_mult t chiplet = Array.unsafe_get t.link_mult chiplet

let set_link_mult t chiplet mult =
  check "chiplet" chiplet t.chiplets;
  t.link_mult.(chiplet) <- Float.max 1.0 mult;
  touch t

let xsocket_mult t = t.xsocket_mult

let set_xsocket_mult t mult =
  t.xsocket_mult <- Float.max 1.0 mult;
  touch t

(* Result corruption is a one-shot register, not a persistent state: each
   armed seed poisons exactly one subsequently computed result token
   (seeded bit-flip, applied by the consumer).  FIFO so a schedule with
   several corruption events replays deterministically. *)
let arm_corruption t ~seed =
  t.corruptions <- t.corruptions @ [ seed ];
  touch t

let take_corruption t =
  match t.corruptions with
  | [] -> None
  | seed :: rest ->
      t.corruptions <- rest;
      touch t;
      Some seed

let online_capacity t =
  let acc = ref 0.0 in
  for c = 0 to t.cores - 1 do
    if t.core_online.(c) then acc := !acc +. Float.min 1.0 t.core_speed.(c)
  done;
  !acc /. float_of_int t.cores

(* Hotplug and DVFS are what a real runtime can read from sysfs; link
   degradation is silent and must be inferred from latency. *)
let chiplet_os_impaired t ~chiplet ~cores_per_chiplet =
  check "chiplet" chiplet t.chiplets;
  let base = chiplet * cores_per_chiplet in
  let bad = ref false in
  for c = base to min (t.cores - 1) (base + cores_per_chiplet - 1) do
    if (not t.core_online.(c)) || t.core_speed.(c) < 1.0 then bad := true
  done;
  !bad

let chiplet_impaired t ~chiplet ~cores_per_chiplet =
  chiplet_os_impaired t ~chiplet ~cores_per_chiplet
  || t.link_mult.(chiplet) > 1.0

let reset t =
  Array.fill t.core_speed 0 t.cores 1.0;
  Array.fill t.core_online 0 t.cores true;
  Array.fill t.link_mult 0 t.chiplets 1.0;
  t.xsocket_mult <- 1.0;
  t.corruptions <- [];
  touch t
