(* Small statistics helpers shared by the benchmark and its tests. *)

let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The percentile ladder a timing may be reported at, in basis points. *)
let ladder_bp = [ 9999; 9990; 9900; 9000; 5000 ]

(* The highest percentile (in basis points) of [n] samples that still has
   at least ten samples beyond it: p99 needs 1000 samples, p90 needs 100,
   the median 20.  [None] below 20 samples. *)
let tail_bp ~n =
  List.find_opt (fun bp -> n * (10_000 - bp) >= 10 * 10_000) ladder_bp

let percentile_name bp =
  if bp mod 100 = 0 then Printf.sprintf "p%d" (bp / 100)
  else Printf.sprintf "p%g" (float_of_int bp /. 100.0)

(* What one repetition of a workload must reproduce exactly for the same
   seed: the simulated event count, the virtual makespan and a digest of
   the simulated outputs (latency histogram, BFS levels, ...). *)
type fingerprint = { events : int; makespan_ns : float; digest : string }

let fingerprint ~events ~makespan_ns ~outputs =
  { events; makespan_ns; digest = Digest.to_hex (Digest.string outputs) }

(* [None] when every fingerprint equals the first, else a one-line
   description of the first field that differs. *)
let fingerprint_mismatch = function
  | [] -> None
  | first :: rest ->
      List.find_map
        (fun f ->
          if f.events <> first.events then
            Some (Printf.sprintf "events %d vs %d" first.events f.events)
          else if Int64.bits_of_float f.makespan_ns <> Int64.bits_of_float first.makespan_ns
          then
            Some
              (Printf.sprintf "makespan %.17g vs %.17g ns" first.makespan_ns
                 f.makespan_ns)
          else if f.digest <> first.digest then
            Some (Printf.sprintf "output digest %s vs %s" first.digest f.digest)
          else None)
        rest

(* How many times slower than [ref_ns] the host ran a fixed probe: the
   geometric mean of its times over [ref_ns].  Across runs it tracked the
   simulator's host time better than the median or the arithmetic mean
   (which a few preempted probes throw off). *)
let slowdown ~ref_ns = function
  | [] -> invalid_arg "Stats.slowdown: no probes"
  | probe_ns ->
      let logs = List.fold_left (fun acc t -> acc +. log t) 0.0 probe_ns in
      exp (logs /. float_of_int (List.length probe_ns)) /. ref_ns
