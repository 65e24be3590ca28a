(* Tests of the benchmark's own measurement rules. *)

module Span = Perfbench_lib.Span
module Stats = Perfbench_lib.Stats

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

(* the highest percentile with at least ten samples beyond it *)
let test_percentile_rule () =
  let rule n = Option.map Stats.percentile_name (Stats.tail_bp ~n) in
  check "p99 at 1000" (rule 1000 = Some "p99");
  check "p90 at 999" (rule 999 = Some "p90");
  check "p90 at 100" (rule 100 = Some "p90");
  check "p50 at 99" (rule 99 = Some "p50");
  check "p50 at 20" (rule 20 = Some "p50");
  check "none at 19" (rule 19 = None);
  check "p99.9 at 10000" (rule 10_000 = Some "p99.9");
  check "p99.99 at 100000" (rule 100_000 = Some "p99.99")

(* self time = span length minus what its children cover *)
let test_self_time () =
  let u = Span.uncovered ~lo:0 ~hi:100 in
  check "no children" (u [] = 100);
  check "one child" (u [ (10, 30) ] = 80);
  check "adjacent children" (u [ (10, 30); (30, 50) ] = 60);
  check "overlapping children counted once" (u [ (10, 40); (30, 50) ] = 60);
  check "unsorted children" (u [ (60, 70); (10, 20) ] = 80);
  check "children clipped to the parent" (u [ (-10, 20); (90, 150) ] = 70);
  check "child covering the parent" (u [ (0, 100) ] = 0)

(* nested spans: a grandchild is subtracted from its own parent only *)
let test_nested_spans () =
  let t = Span.create ~workload:"test" in
  let spin () =
    let t0 = Span.now_ns () in
    while Span.now_ns () - t0 < 200_000 do
      ()
    done
  in
  let root = Span.enter t "root" in
  spin ();
  let a = Span.enter t "a" in
  spin ();
  let b = Span.enter t "b" in
  spin ();
  Span.leave t b;
  Span.leave t a;
  let c = Span.enter t "c" in
  spin ();
  Span.leave t c;
  Span.leave t root;
  let self = Span.self_by_name t in
  let get n = (Hashtbl.find self n).Span.self_ns in
  let total = Span.total_ns t "root" in
  check "self times add up to the root span" (get "root" + get "a" + get "b" + get "c" = total);
  check "a excludes b" (get "a" = Span.total_ns t "a" - Span.total_ns t "b");
  check "root excludes a and c, not b twice"
    (get "root" = total - Span.total_ns t "a" - Span.total_ns t "c");
  check "calls counted" ((Hashtbl.find self "b").Span.calls = 1)

let test_fingerprints () =
  let f ?(events = 10) ?(makespan_ns = 1.5) ?(outputs = "x") () =
    Stats.fingerprint ~events ~makespan_ns ~outputs
  in
  check "equal" (Stats.fingerprint_mismatch [ f (); f (); f () ] = None);
  check "single" (Stats.fingerprint_mismatch [ f () ] = None);
  check "events differ" (Stats.fingerprint_mismatch [ f (); f ~events:11 () ] <> None);
  check "makespan differs in the last bit"
    (Stats.fingerprint_mismatch [ f (); f ~makespan_ns:(Float.succ 1.5) () ] <> None);
  check "outputs differ" (Stats.fingerprint_mismatch [ f (); f (); f ~outputs:"y" () ] <> None)

let test_slowdown () =
  check "geometric mean over reference"
    (Float.abs (Stats.slowdown ~ref_ns:2.0 [ 1.0; 4.0; 16.0 ] -. 2.0) < 1e-12);
  check "faster than reference" (Stats.slowdown ~ref_ns:4.0 [ 2.0 ] = 0.5)

let test_median () =
  check "odd" (Stats.median [ 3.0; 1.0; 2.0 ] = 2.0);
  check "even" (Stats.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5)

let () =
  test_percentile_rule ();
  test_self_time ();
  test_nested_spans ();
  test_fingerprints ();
  test_slowdown ();
  test_median ();
  if !failures > 0 then exit 1;
  print_endline "perfbench tests: ok"
