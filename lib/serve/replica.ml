module Sched = Engine.Sched
module Topology = Chipsim.Topology

(* A replica's result token is a pure function of what the job computes
   over — its seed and kind — NOT of the shared mutable scratch the job
   kernels run in (BFS levels, PageRank ranks): replicas of one job share
   that scratch, so value-derived tokens would diverge spuriously when
   replicas interleave.  Corruption faults poison the token explicitly
   instead, which is exactly the silent-data-corruption model: the
   computation "ran fine" but the result is wrong. *)
let token ~job_seed ~kind =
  (* splitmix64 finalizer over the seed, offset by the kind's hash *)
  let z =
    Int64.add (Int64.of_int job_seed)
      (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (1 + Hashtbl.hash kind)))
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let corrupt tok ~seed = Int64.logxor tok (Int64.shift_left 1L (abs seed mod 63))

(* Plurality vote with a deterministic tie-break: among equally common
   tokens the one observed first (lowest replica index) wins.  O(k^2)
   over replica groups of 2-5 — no hashing, no allocation. *)
let majority tokens =
  if Array.length tokens = 0 then invalid_arg "Replica.majority: no replicas";
  let n = Array.length tokens in
  let best = ref tokens.(0) and best_count = ref 0 in
  for i = 0 to n - 1 do
    let c = ref 0 in
    for j = 0 to n - 1 do
      if Int64.equal tokens.(j) tokens.(i) then incr c
    done;
    if !c > !best_count then begin
      best_count := !c;
      best := tokens.(i)
    end
  done;
  !best

let vote tokens =
  if Array.length tokens = 0 then invalid_arg "Replica.vote: no replicas";
  if Chipsim.Invariant.Plant.(active Vote_skip) then tokens.(0)
  else majority tokens

let unanimous tokens =
  Array.for_all (fun t -> Int64.equal t tokens.(0)) tokens

(* Distinct chiplets for one replica group, rotated by job id so
   successive groups spread over the machine instead of always hammering
   the same chiplets.  Clamps to the chiplets that actually host workers:
   a 2-chiplet machine caps every group at 2 genuinely independent
   placements — pretending otherwise would just co-locate replicas. *)
let placement ~chiplets ~job_id ~replicas =
  let n = Array.length chiplets in
  if n = 0 then invalid_arg "Replica.placement: no chiplets";
  if replicas < 1 then invalid_arg "Replica.placement: replicas < 1";
  let k = min replicas n in
  Array.init k (fun r -> chiplets.((job_id + r) mod n))

(* first worker hosted on the chiplet, the pin target for a replica *)
let worker_on sched topo ~chiplet =
  List.find_map
    (fun core -> Sched.worker_of_core sched core)
    (Topology.cores_of_chiplet topo chiplet)
