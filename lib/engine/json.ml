type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let str s = "\"" ^ escape s ^ "\""
let obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"
let arr items = "[" ^ String.concat "," items ^ "]"

exception Fail of int * string

(* strict recursive descent over the whole string, as chrome://tracing and
   Python's json module read it *)
let parse s =
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then s.[!pos] else fail "unexpected end of input" in
  let next () = let c = peek () in incr pos; c in
  let at p = !pos < n && p s.[!pos] in
  let skip_ws () = while at (String.contains " \n\t\r") do incr pos done in
  let expect c = if next () <> c then fail (Printf.sprintf "expected '%c'" c) in
  let digits () =
    let start = !pos in
    while at (function '0' .. '9' -> true | _ -> false) do incr pos done;
    if !pos = start then fail "expected a digit"
  in
  let number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    if peek () = '0' then incr pos else digits ();
    if at (( = ) '.') then (incr pos; digits ());
    if at (String.contains "eE") then begin
      incr pos;
      if at (String.contains "+-") then incr pos;
      digits ()
    end;
    Number (float_of_string (String.sub s start (!pos - start)))
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
          (match next () with
          | ('"' | '\\' | '/') as c -> Buffer.add_char b c
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              let hex = String.init 4 (fun _ -> next ()) in
              let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
              if not (String.for_all is_hex hex) then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ hex) in
              if not (Uchar.is_valid code) then fail "surrogate \\u escape";
              Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | _ -> fail "bad escape");
          go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  (* the comma-separated items of an object or array up to [close] *)
  let items close item =
    skip_ws ();
    if peek () = close then (incr pos; [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        if peek () = ',' then (incr pos; go acc) else (expect close; List.rev acc)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        let member () =
          skip_ws ();
          let k = string_ () in
          skip_ws ();
          expect ':';
          (k, value ())
        in
        Object (items '}' member)
    | '[' -> incr pos; Array (items ']' value)
    | '"' -> String (string_ ())
    | 't' -> String.iter expect "true"; Bool true
    | 'f' -> String.iter expect "false"; Bool false
    | 'n' -> String.iter expect "null"; Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail "trailing bytes after the value";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "byte %d: %s" at msg)

let member k = function Object fields -> List.assoc_opt k fields | _ -> None
