(* In-memory host-time spans recorded by the benchmark around its calls
   into the program's layers.  A span holds its name, start and end
   (monotonic clock, ns), its parent span and the minor-heap words
   allocated while it was open; spans stay in memory and are written out
   once, when the run ends.  Storage is struct-of-arrays so recording a
   span allocates nothing once the arrays have grown. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  workload : string;
  mutable names : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable words0 : float array;
  mutable words1 : float array;
  mutable n : int;
  mutable current : int;  (** innermost open span, -1 at top level *)
}

let create ~workload =
  let cap = 1024 in
  {
    workload;
    names = Array.make cap "";
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    words0 = Array.make cap 0.0;
    words1 = Array.make cap 0.0;
    n = 0;
    current = -1;
  }

let grow t =
  let cap = 2 * Array.length t.start in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- ext t.names "";
  t.start <- ext t.start 0;
  t.stop <- ext t.stop 0;
  t.parent <- ext t.parent (-1);
  t.words0 <- ext t.words0 0.0;
  t.words1 <- ext t.words1 0.0

let enter t name =
  if t.n = Array.length t.start then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.names.(i) <- name;
  t.parent.(i) <- t.current;
  t.current <- i;
  t.words0.(i) <- Gc.minor_words ();
  t.start.(i) <- now_ns ();
  i

let leave t i =
  t.stop.(i) <- now_ns ();
  t.words1.(i) <- Gc.minor_words ();
  t.current <- t.parent.(i)

let with_ tracer name f =
  match tracer with
  | None -> f ()
  | Some t -> (
      let i = enter t name in
      match f () with
      | v ->
          leave t i;
          v
      | exception e ->
          leave t i;
          raise e)

let count t = t.n

(* Length of [lo, hi) not covered by the union of [intervals] (each
   clipped to [lo, hi)).  Children of one span may be nested in each
   other's ranges only through their own children, but touching or
   overlapping siblings are merged, so no nanosecond is subtracted
   twice. *)
let uncovered ~lo ~hi intervals =
  let sorted =
    List.sort compare
      (List.filter_map
         (fun (a, b) ->
           let a = max a lo and b = min b hi in
           if b > a then Some (a, b) else None)
         intervals)
  in
  let covered, last_a, last_b =
    List.fold_left
      (fun (acc, ca, cb) (a, b) ->
        if a <= cb then (acc, ca, max cb b) else (acc + (cb - ca), a, b))
      (0, lo, lo) sorted
  in
  hi - lo - (covered + (last_b - last_a))

type self = { self_ns : int; self_words : float; calls : int }

let children t =
  let kids = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  kids

(* Self time and self allocation of every span, summed by name. *)
let self_by_name t =
  let kids = children t in
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let ns =
      uncovered ~lo:t.start.(i) ~hi:t.stop.(i)
        (List.map (fun c -> (t.start.(c), t.stop.(c))) kids.(i))
    in
    let words =
      t.words1.(i) -. t.words0.(i)
      -. List.fold_left (fun acc c -> acc +. (t.words1.(c) -. t.words0.(c))) 0.0 kids.(i)
    in
    let prev =
      Option.value (Hashtbl.find_opt tbl t.names.(i))
        ~default:{ self_ns = 0; self_words = 0.0; calls = 0 }
    in
    Hashtbl.replace tbl t.names.(i)
      {
        self_ns = prev.self_ns + ns;
        self_words = prev.self_words +. words;
        calls = prev.calls + 1;
      }
  done;
  tbl

(* Total (not self) time of every span with this name. *)
let total_ns t name =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    if t.names.(i) = name then s := !s + (t.stop.(i) - t.start.(i))
  done;
  !s

(* Chrome trace-event JSON (load in chrome://tracing or Perfetto): one
   complete event per span, with its parent index and workload. *)
let write_chrome t file =
  let oc = open_out file in
  let t0 = if t.n > 0 then t.start.(0) else 0 in
  output_string oc "{\"traceEvents\":[\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "%s{\"name\":%S,\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"workload\":%S}}\n"
      (if i = 0 then "" else ",")
      t.names.(i)
      (float_of_int (t.start.(i) - t0) /. 1e3)
      (float_of_int (t.stop.(i) - t.start.(i)) /. 1e3)
      i t.parent.(i) t.workload
  done;
  output_string oc "]}\n";
  close_out oc
