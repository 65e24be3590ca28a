open Engine

let test_determinism () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different first draw" true (Rng.next a <> Rng.next b)

let test_split_independent () =
  let a = Rng.create 1 in
  let c = Rng.split a in
  let x = Rng.next a and y = Rng.next c in
  Alcotest.(check bool) "streams diverge" true (x <> y)

let test_shuffle_permutes () =
  let rng = Rng.create 9 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let prop_int_in_bounds =
  QCheck.Test.make ~name:"int stays in [0, bound)" ~count:500
    QCheck.(pair (int_range 1 1_000_000) small_int)
    (fun (bound, seed) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_float_in_bounds =
  QCheck.Test.make ~name:"float stays in [0, bound)" ~count:500
    QCheck.(pair (float_range 0.001 1e6) small_int)
    (fun (bound, seed) ->
      let rng = Rng.create seed in
      let v = Rng.float rng bound in
      v >= 0.0 && v < bound)

let test_int_bad_bound () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_zipf_skew () =
  let rng = Rng.create 11 in
  let n = 1000 in
  let hits = Array.make n 0 in
  for _ = 1 to 20_000 do
    let k = Rng.zipf rng ~n ~theta:0.99 in
    hits.(k) <- hits.(k) + 1
  done;
  (* hot head: the most popular key draws far more than uniform share *)
  Alcotest.(check bool) "head is hot" true (hits.(0) > 20 * (20_000 / n));
  let total = Array.fold_left ( + ) 0 hits in
  Alcotest.(check int) "all draws in range" 20_000 total

let prop_zipf_in_bounds =
  QCheck.Test.make ~name:"zipf stays in [0, n)" ~count:300
    QCheck.(pair (int_range 1 10_000) small_int)
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let v = Rng.zipf rng ~n ~theta:0.99 in
      v >= 0 && v < n)

let test_zipf_validation () =
  let rng = Rng.create 1 in
  (try
     ignore (Rng.zipf rng ~n:0 ~theta:0.5);
     Alcotest.fail "accepted n=0"
   with Invalid_argument _ -> ());
  try
    ignore (Rng.zipf rng ~n:10 ~theta:1.0);
    Alcotest.fail "accepted theta=1"
  with Invalid_argument _ -> ()

(* First outputs per seed, recorded from the boxed-[int64]-state
   implementation: the unboxed state must reproduce its stream bit for
   bit.  Each draw below starts from a fresh [create seed]. *)
let golden =
  [
    ( 0,
      -2152535657050944081L, 651883, 4606131375998723001L, true,
      6235967106033911276L, 7960286522194355700L, [| 7; 0; 4; 6; 5; 1; 2; 3 |] );
    ( 1,
      -4616330145664149646L, 350492, 4604928351346079834L, false,
      -1089616305791727635L, 6869446166584666695L, [| 3; 0; 7; 2; 6; 1; 5; 4 |] );
    ( 42,
      -7450291807549245335L, 76570, 4603544581003362503L, true,
      3734525477312840781L, 2958219263312191191L, [| 7; 0; 5; 6; 1; 3; 4; 2 |] );
    ( -1,
      -6523613405836042406L, 377302, 4603997060691699027L, false,
      7891347976550039078L, -5438901102636068674L, [| 5; 3; 1; 7; 0; 2; 4; 6 |] );
  ]

let test_golden_stream () =
  List.iter
    (fun (seed, next, int, float_bits, bool, split_next, after_split, perm) ->
      let name what = Printf.sprintf "seed %d %s" seed what in
      Alcotest.(check int64) (name "next") next (Rng.next (Rng.create seed));
      Alcotest.(check int) (name "int") int (Rng.int (Rng.create seed) 1_000_000);
      Alcotest.(check int64) (name "float bits") float_bits
        (Int64.bits_of_float (Rng.float (Rng.create seed) 1.0));
      Alcotest.(check bool) (name "bool") bool (Rng.bool (Rng.create seed));
      let parent = Rng.create seed in
      let child = Rng.split parent in
      Alcotest.(check int64) (name "split child") split_next (Rng.next child);
      Alcotest.(check int64) (name "parent after split") after_split (Rng.next parent);
      let arr = Array.init 8 Fun.id in
      Rng.shuffle (Rng.create seed) arr;
      Alcotest.(check (array int)) (name "shuffle") perm arr)
    golden

let test_draws_allocate_nothing () =
  let rng = Rng.create 7 in
  let sink = ref 0 in
  (* warm up, so any one-off allocation lands before the measurement *)
  sink := !sink + Rng.int rng 100;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sink := !sink + Rng.int rng 1_000;
    if Rng.bool rng then incr sink
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink);
  Alcotest.(check (float 0.0)) "minor words for 10k int + bool draws" 0.0 words

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "golden stream" `Quick test_golden_stream;
    Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf validation" `Quick test_zipf_validation;
    Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
    Alcotest.test_case "split independent" `Quick test_split_independent;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "bad bound" `Quick test_int_bad_bound;
    QCheck_alcotest.to_alcotest prop_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_float_in_bounds;
    QCheck_alcotest.to_alcotest prop_zipf_in_bounds;
  ]
