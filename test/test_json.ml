(* The shared JSON module: the parser's strictness and the escape/parse
   round trip. *)

open Engine

let test_rejects_malformed () =
  List.iter (fun (name, s) ->
      if Result.is_ok (Json.parse s) then Alcotest.failf "%s: accepted %S" name s)
    [
      ("raw control character", "\"a\001b\"");
      ("bad \\x escape", {|"a\x41"|});
      ("short \\u escape", {|"\u00g1"|});
      ("truncated object", {|{"a":1|});
      ("trailing garbage", {|{"a":1} x|});
      ("lone minus", "-");
      ("leading zero", "01");
      ("empty input", "");
    ]

let test_parses_values () =
  Alcotest.(check bool) "nested values" true
    (Json.parse {| {"a": [1, -2.5e3, true, null], "b": {}, "c": "\/é"} |}
    = Ok
        (Json.Object
           [
             ( "a",
               Json.Array [ Json.Number 1.0; Json.Number (-2500.0); Json.Bool true; Json.Null ] );
             ("b", Json.Object []);
             ("c", Json.String "/\xc3\xa9");
           ]))

let test_escape_round_trip () =
  let all = String.init 128 Char.chr in
  Alcotest.(check bool) "bytes 0x00-0x7f round-trip as a key and a value" true
    (Json.parse (Json.obj [ (all, Json.arr [ Json.str all; "1" ]) ])
    = Ok (Json.Object [ (all, Json.Array [ Json.String all; Json.Number 1.0 ]) ]))

let suite =
  [
    Alcotest.test_case "parse rejects malformed input" `Quick test_rejects_malformed;
    Alcotest.test_case "parse values" `Quick test_parses_values;
    Alcotest.test_case "escape round-trips 0x00-0x7f" `Quick test_escape_round_trip;
  ]
