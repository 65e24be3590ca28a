(* [bench diff OLD NEW]: compare a fresh [--json] run with a committed
   BENCH_*.json baseline under the schema its experiment declares next to
   its [json_row] call.  Every old row must be present in the new file
   and every [verdict_*] key in the new file must be true. *)

module Json = Engine.Json

(* a bound on new/old for one key *)
type gate = Min_ratio of string * float | Max_ratio of string * float

type schema = {
  experiment : string;
  identity : string list;  (* rows lacking one of these (verdicts) are not compared *)
  exact : string list;  (* simulated values that must reproduce bit for bit *)
  info : string list;  (* printed old/new, not gated *)
  gates : gate list;
}

let render = function
  | Some (Json.String s) -> s
  | Some (Json.Number f) -> Printf.sprintf "%g" f
  | Some (Json.Bool b) -> string_of_bool b
  | Some _ -> "(nested)"
  | None -> "(missing)"

let rows doc =
  match Json.member "rows" doc with
  | Some (Json.Array rs) ->
      let objs = List.filter_map (function Json.Object f -> Some f | _ -> None) rs in
      if List.length objs = List.length rs then Ok objs else Error "a row is not an object"
  | _ -> Error "no \"rows\" array"

let experiment_of = function
  | r :: _ -> (match List.assoc_opt "experiment" r with Some (Json.String e) -> Some e | _ -> None)
  | [] -> None

(* the old/new table (header first) and one message per failed check *)
let diff schema ~old ~new_ =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let keyed =
    List.filter_map (fun r ->
        let ids = List.filter_map (fun k -> List.assoc_opt k r) schema.identity in
        if List.length ids < List.length schema.identity then None
        else Some (String.concat "/" (List.map (fun v -> render (Some v)) ids), r))
  in
  let new_rows = keyed new_ in
  let gate_key (Min_ratio (k, _) | Max_ratio (k, _)) = k in
  let cols = schema.info @ List.map gate_key schema.gates in
  (* a missing or non-numeric value is NaN, which fails every gate *)
  let num r k = match List.assoc_opt k r with Some (Json.Number f) -> f | _ -> Float.nan in
  let line id cell =
    let column k =
      let w = max 12 (String.length k + 4) and o, n, ratio = cell k in
      Printf.sprintf " %*s %*s %6s" w o w n ratio
    in
    String.concat "" (Printf.sprintf "%-24s" id :: List.map column cols)
  in
  let check_row (id, o) =
    match List.assoc_opt id new_rows with
    | None -> fail "%s: row missing from the new file" id; None
    | Some n ->
        List.iter (fun k ->
            let ov = List.assoc_opt k o and nv = List.assoc_opt k n in
            if ov = None || ov <> nv then
              fail "%s: %s changed %s -> %s (simulated values must match exactly)" id k
                (render ov) (render nv))
          schema.exact;
        List.iter (fun g ->
            let k = gate_key g in
            let ov = num o k and nv = num n k in
            let ok, side, b =
              match g with
              | Min_ratio (_, b) -> (nv >= b *. ov, "below", b)
              | Max_ratio (_, b) -> (nv <= b *. ov, "above", b)
            in
            if not ok then fail "%s: %s new/old %.2f is %s %.2f" id k (nv /. ov) side b)
          schema.gates;
        Some (line id (fun k ->
            ( render (List.assoc_opt k o), render (List.assoc_opt k n),
              Printf.sprintf "%.2f" (num n k /. num o k) )))
  in
  let header = line (String.concat "/" schema.identity) (fun k -> (k ^ " old", "new", "ratio")) in
  let table = List.filter_map check_row (keyed old) in
  List.iter (List.iter (fun (k, v) ->
      if String.starts_with ~prefix:"verdict_" k && v <> Json.Bool true then
        fail "%s is %s in the new file" k (render (Some v)))) new_;
  (header :: table, List.rev !failures)

(* exit code: 0 every check passes, 1 one fails, 2 a bad file or an
   experiment without a schema (one stderr line) *)
let run schemas old_file new_file =
  let load file =
    match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
    | Ok doc -> Result.map_error (Printf.sprintf "%s: %s" file) (rows doc)
    | Error e -> Error (Printf.sprintf "%s: %s" file e)
    | exception Sys_error e -> Error e
  in
  match (load old_file, load new_file) with
  | Error e, _ | _, Error e -> Printf.eprintf "bench diff: %s\n" e; 2
  | Ok old, Ok new_ -> (
      match List.find_opt (fun s -> Some s.experiment = experiment_of old) schemas with
      | Some schema ->
          let table, failures = diff schema ~old ~new_ in
          List.iter print_endline table;
          List.iter (Printf.printf "FAIL: %s\n") failures;
          if failures = [] then 0 else 1
      | None ->
          Printf.eprintf "bench diff: %s: unknown experiment %s (known: %s)\n" old_file
            (render (Option.map (fun e -> Json.String e) (experiment_of old)))
            (String.concat " " (List.map (fun s -> s.experiment) schemas));
          2)
