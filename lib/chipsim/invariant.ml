exception Violation of string

let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

module Plant = struct
  type t = Skip_ready_clamp | Vote_skip | Drop_relocated | Route_offline

  let names =
    [
      ("skip-ready-clamp", Skip_ready_clamp);
      ("vote-skip", Vote_skip);
      ("drop-relocated", Drop_relocated);
      ("route-offline", Route_offline);
    ]

  let[@inline] index = function
    | Skip_ready_clamp -> 0
    | Vote_skip -> 1
    | Drop_relocated -> 2
    | Route_offline -> 3

  (* one flag per kind, so [active] on the scheduler's hot path is a
     single array load: no allocation, no polymorphic compare *)
  let flags = Array.make (List.length names) false

  let set plant =
    Array.fill flags 0 (Array.length flags) false;
    Option.iter (fun k -> flags.(index k) <- true) plant

  let[@inline] active k = Array.unsafe_get flags (index k)
  let current () = List.find_map (fun (_, k) -> if active k then Some k else None) names
  let name k = fst (List.find (fun (_, k') -> k' = k) names)
end
