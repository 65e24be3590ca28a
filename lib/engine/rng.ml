(* The 64-bit state lives unboxed in an 8-byte buffer: a mutable [int64]
   record field would box every new state and every result, i.e. six
   minor words per [int] draw.  [step] inlines into each draw, so the
   arithmetic stays in registers and only [next], whose result is an
   [int64], allocates. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] step t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 s;
  mix s

let next t = step t
let split t = of_state (mix (step t))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (step t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (step t) 11) in
  bound *. v /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (step t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Zipfian generator (Gray et al., SIGMOD'94), as used by YCSB: constants
   depend only on (n, theta), memoised per generator call site. *)
let zipf_cache : (int * int, float * float * float) Hashtbl.t = Hashtbl.create 8

let zipf t ~n ~theta =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  if theta < 0.0 || theta >= 1.0 then
    invalid_arg "Rng.zipf: theta must be in [0, 1)";
  if theta = 0.0 then int t n
  else begin
    let key = (n, int_of_float (theta *. 1_000_000.0)) in
    let zetan, alpha, eta =
      match Hashtbl.find_opt zipf_cache key with
      | Some c -> c
      | None ->
          let zetan = ref 0.0 in
          for i = 1 to n do
            zetan := !zetan +. (1.0 /. Float.pow (float_of_int i) theta)
          done;
          let zeta2 = 1.0 +. (1.0 /. Float.pow 2.0 theta) in
          let alpha = 1.0 /. (1.0 -. theta) in
          let eta =
            (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
            /. (1.0 -. (zeta2 /. !zetan))
          in
          let c = (!zetan, alpha, eta) in
          Hashtbl.replace zipf_cache key c;
          c
    in
    let u = float t 1.0 in
    let uz = u *. zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. Float.pow 0.5 theta then 1
    else
      let v =
        float_of_int n *. Float.pow ((eta *. u) -. eta +. 1.0) alpha
      in
      min (n - 1) (int_of_float v)
  end
