type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let find_or tbl name mk =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
      let v = mk () in
      Hashtbl.add tbl name v;
      v

let incr t ?(by = 1) name =
  let c = find_or t.counters name (fun () -> ref 0) in
  c := !c + by

type counter = int ref

let counter t name = find_or t.counters name (fun () -> ref 0)
let bump c = c := !c + 1

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some c -> !c | None -> 0

let set_gauge t name v =
  let g = find_or t.gauges name (fun () -> ref 0.0) in
  g := v

let gauge_value t name =
  match Hashtbl.find_opt t.gauges name with Some g -> !g | None -> 0.0

let histogram t name =
  find_or t.histograms name (fun () -> Histogram.create ())

let observe t name v = Histogram.observe (histogram t name) v

(* Merge in sorted-key order so the result (and therefore [to_json]) is
   independent of the hash tables' internal iteration order. *)
let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge dst src =
  List.iter (fun (name, c) -> incr dst ~by:!c name) (sorted_bindings src.counters);
  List.iter (fun (name, g) -> set_gauge dst name !g) (sorted_bindings src.gauges);
  List.iter
    (fun (name, h) -> Histogram.merge (histogram dst name) h)
    (sorted_bindings src.histograms)

(* JSON rendering: sorted keys out, strings escaped by {!Engine.Json}. *)

let obj = Engine.Json.obj

let json_of_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let json_of_histogram h =
  obj
    [
      ("count", string_of_int (Histogram.count h));
      ("mean", json_of_float (Histogram.mean h));
      ("p50", json_of_float (Histogram.p50 h));
      ("p95", json_of_float (Histogram.p95 h));
      ("p99", json_of_float (Histogram.p99 h));
      ("p999", json_of_float (Histogram.p999 h));
      ("max", json_of_float (if Histogram.count h = 0 then 0.0 else Histogram.max_value h));
    ]

let to_json t =
  obj
    [
      ( "counters",
        obj (List.map (fun (k, c) -> (k, string_of_int !c)) (sorted_bindings t.counters)) );
      ( "gauges",
        obj (List.map (fun (k, g) -> (k, json_of_float !g)) (sorted_bindings t.gauges)) );
      ( "histograms",
        obj (List.map (fun (k, h) -> (k, json_of_histogram h)) (sorted_bindings t.histograms)) );
    ]
