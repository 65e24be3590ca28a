(* What one repetition of a workload produced, and helpers every workload
   shares. *)

open Chipsim
module Stats_ = Engine.Stats
module Histogram = Serving.Histogram
module Sched = Engine.Sched

type t = {
  events : int;
      (** simulated engine events: memory accesses + task quanta + steals
          + migrations, summed over machines *)
  run_s : float;  (** host seconds of the timed part *)
  alloc_words : float;  (** minor-heap words allocated in the timed part *)
  makespan_ns : float;  (** virtual time to finish the workload *)
  attempted : int;  (** ops: jobs, or kernel runs for graph-batch *)
  failed : int;
  good : int;  (** ops that succeeded (and met their SLO, for jobs) *)
  energy_pj : float;  (** simulated memory + compute energy *)
  latency : Histogram.t option;  (** job latency, ns (jobs only) *)
  queue_wait : Histogram.t option;  (** job queue wait, ns (jobs only) *)
  probe_ns : float list;
      (** host-speed probe times taken in and around the timed part (see
          {!probe}) *)
  fingerprint : Perfbench_lib.Stats.fingerprint;
  counts : (string * float) list;  (** per-layer counts of this pass *)
  errors : string list;  (** failed output checks, one line each *)
}

(* The host-speed probe.  On a shared host the simulator's speed swings
   by up to 1.8x over tens of seconds with what other tenants run on the
   same core and memory, for longer than a run lasts, so no statistic of
   host time alone is steady from run to run.  The probe is a fixed piece
   of the simulator's own kind of work, which the same interference slows
   down too (about as much in most stretches measured, less under the
   heaviest load; see README.md): it evicts the core's caches by
   streaming 8 MiB past them, then feeds 2,000 random line addresses to
   a small set-associative LRU cache model that bumps a directory entry
   on each miss, timing only the model.  Host rates are multiplied by the probe's slowdown (its
   geometric mean time over [probe_ref_ns]), which reads them as if on a
   quiet core.  The model allocates nothing; a probe's few words of
   result are the same at every probe. *)
let probe_ways = 8
let probe_sets = 8192
let probe_dir_slots = 512 * 1024
let probe_accesses = 2_000
let evict_slots = 1024 * 1024

(* About the probe's time on a quiet core of the 2-core Xeon host this
   benchmark was tuned on; it only sets the scale of normalised
   figures. *)
let probe_ref_ns = 400_000.0

let probe_tags = Array.make (probe_ways * probe_sets) (-1)
let probe_ages = Array.make (probe_ways * probe_sets) 0
let probe_dir = Array.make probe_dir_slots 0
let evict_area = Array.make evict_slots 0
let probe_clock = ref 0
let probe_cursor = ref 1
let probe_sink = ref 0

(* The cache model: [probe_accesses] random line addresses (an LCG over
   1M lines); the number of hits. *)
let probe_work () =
  let a = ref !probe_cursor and hits = ref 0 in
  for _ = 1 to probe_accesses do
    a := ((!a * 1103515245) + 12345) land 0x3FFFFFF;
    let line = !a lsr 6 in
    let base = (line land (probe_sets - 1)) * probe_ways in
    incr probe_clock;
    let way = ref (-1) and w = ref 0 in
    while !way < 0 && !w < probe_ways do
      if probe_tags.(base + !w) = line then way := !w;
      incr w
    done;
    if !way >= 0 then begin
      incr hits;
      probe_ages.(base + !way) <- !probe_clock
    end
    else begin
      let victim = ref 0 in
      for w = 1 to probe_ways - 1 do
        if probe_ages.(base + w) < probe_ages.(base + !victim) then victim := w
      done;
      probe_tags.(base + !victim) <- line;
      probe_ages.(base + !victim) <- !probe_clock;
      let d = (line * 0x9E3779B1) land (probe_dir_slots - 1) in
      probe_dir.(d) <- probe_dir.(d) + 1
    end
  done;
  probe_cursor := !a;
  !hits

(* One probe: the host ns of its timed part, and of all of it. *)
let probe () =
  let now = Perfbench_lib.Span.now_ns in
  let t0 = now () in
  let sum = ref 0 in
  for i = 0 to (evict_slots / 8) - 1 do
    sum := !sum + evict_area.(i * 8)
  done;
  let t1 = now () in
  let hits = probe_work () in
  let t2 = now () in
  probe_sink := !sum + hits;
  (float_of_int (t2 - t1), float_of_int (t2 - t0))

let burst n = List.init n (fun _ -> fst (probe ()))

(* Probes before and after a timed part that has no marks. *)
let bracket = 16

(* Probes taken inside the timed part, at deterministic points of the
   simulation: every [stride]-th quantum end.  Their host time is
   excluded from the timed part. *)
type marks = {
  stride : int;
  mutable quanta : int;
  mutable probes : float list;
  mutable probe_total_ns : float;
}

let marks ?tracer ~stride sched =
  let m = { stride; quanta = 0; probes = []; probe_total_ns = 0.0 } in
  let h = Sched.hooks sched in
  Sched.set_hooks sched
    {
      h with
      Sched.on_quantum_end =
        (fun s w ->
          m.quanta <- m.quanta + 1;
          if m.quanta mod m.stride = 0 then
            Perfbench_lib.Span.with_ tracer "bench.probe" (fun () ->
                let t, total = probe () in
                m.probes <- t :: m.probes;
                m.probe_total_ns <- m.probe_total_ns +. total);
          h.Sched.on_quantum_end s w);
    };
  m

(* Run the timed part of a pass: host time and minor words around [f]
   only, so set-up and output checks stay outside.  Its host-speed probes
   are those taken at [marks], or [bracket] probes on either side of [f]
   when there are none. *)
let timed ?marks f =
  let before = if marks = None then burst bracket else [] in
  let w0 = Gc.minor_words () in
  let t0 = Perfbench_lib.Span.now_ns () in
  let v = f () in
  let t1 = Perfbench_lib.Span.now_ns () in
  let w1 = Gc.minor_words () in
  let probes, probe_total_ns =
    match marks with
    | Some m -> (m.probes, m.probe_total_ns)
    | None -> (before @ burst bracket, 0.0)
  in
  (v, (float_of_int (t1 - t0) -. probe_total_ns) /. 1e9, w1 -. w0, probes)

let engine_events machine =
  let pmu = Machine.pmu machine in
  Machine.accesses machine
  + Pmu.total pmu Pmu.Context_switch
  + Pmu.total pmu Pmu.Task_stolen
  + Pmu.total pmu Pmu.Migration

(* Engine and memory-model counts, summed over the machines' end-of-run
   statistics. *)
let machine_counts (reports : Stats_.report list) =
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 reports) in
  let acc f = sum (fun r -> f r.Stats_.accesses) in
  let remote = acc (fun a -> a.Stats_.remote_chiplet + a.Stats_.remote_numa) in
  let fills =
    acc (fun a ->
        a.Stats_.local_chiplet + a.Stats_.remote_chiplet + a.Stats_.remote_numa
        + a.Stats_.dram)
  in
  [
    ("engine.quanta", sum (fun r -> r.Stats_.context_switches));
    ("engine.steals", sum (fun r -> r.Stats_.tasks_stolen));
    ("engine.migrations", sum (fun r -> r.Stats_.migrations));
    ("engine.tasks_executed", sum (fun r -> r.Stats_.tasks_executed));
    ( "chipsim.accesses",
      acc (fun a ->
          a.Stats_.l2_hits + a.Stats_.local_chiplet + a.Stats_.remote_chiplet
          + a.Stats_.remote_numa + a.Stats_.dram) );
    ("chipsim.l2_hits", acc (fun a -> a.Stats_.l2_hits));
    ("chipsim.local_chiplet", acc (fun a -> a.Stats_.local_chiplet));
    ("chipsim.remote_chiplet", acc (fun a -> a.Stats_.remote_chiplet));
    ("chipsim.remote_numa", acc (fun a -> a.Stats_.remote_numa));
    ("chipsim.dram", acc (fun a -> a.Stats_.dram));
    ("chipsim.remote_fill_share", if fills > 0.0 then remote /. fills else 0.0);
  ]

(* CHARM runtime counters reachable through the public runtime API. *)
let runtime_counts rt =
  let p = Charm.Policy.stats (Charm.Runtime.policy rt) in
  [
    ("core.policy_migrations", float_of_int p.Charm.Policy.migrations);
    ( "core.power_cap_sheds",
      match Charm.Runtime.power_cap rt with
      | Some pc -> float_of_int (Charm.Power_cap.sheds pc)
      | None -> 0.0 );
  ]

(* Wrap the runtime's scheduler hooks in spans, so their host time is
   measured and subtracted from the engine's self time.  Call right after
   the runtime is built, before a serving session wraps the hooks in its
   own observer. *)
let trace_hooks tracer sched =
  match tracer with
  | None -> ()
  | Some tr ->
      let module Span = Perfbench_lib.Span in
      let h = Sched.hooks sched in
      Sched.set_hooks sched
        {
          Sched.on_quantum_end =
            (fun s w ->
              let i = Span.enter tr "core.quantum_hook" in
              h.Sched.on_quantum_end s w;
              Span.leave tr i);
          steal_order =
            (fun s ~thief ->
              let i = Span.enter tr "core.steal_order" in
              let order = h.Sched.steal_order s ~thief in
              Span.leave tr i;
              order);
        }
