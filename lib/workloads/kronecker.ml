type t = { scale : int; edge_factor : int; src : int array; dst : int array }

(* Standard Graph500 R-MAT parameters. *)
let pa = 0.57
let pb = 0.19
let pc = 0.19

let max_edge_entries = 1 lsl 26

let check_size ~scale ~edge_factor =
  if scale < 1 then invalid_arg "Kronecker.generate: scale must be >= 1";
  if edge_factor < 1 then invalid_arg "Kronecker.generate: edge_factor must be >= 1";
  (* the symmetric CSR built from this list holds 2 x edge_factor x 2^scale
     entries; refuse up front rather than die allocating them *)
  if scale > 30 || edge_factor > max_edge_entries / (2 lsl scale) then
    Printf.ksprintf invalid_arg
      "Kronecker.generate: scale %d with edge factor %d exceeds the %d-entry \
       edge-array bound"
      scale edge_factor max_edge_entries

let generate ?(seed = 42) ?(edge_factor = 16) ~scale () =
  check_size ~scale ~edge_factor;
  let n = 1 lsl scale in
  let m = edge_factor * n in
  let rng = Engine.Rng.create seed in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let gen_edge () =
    let u = ref 0 and v = ref 0 in
    for _bit = 0 to scale - 1 do
      let r = Engine.Rng.float rng 1.0 in
      let iu, iv =
        if r < pa then (0, 0)
        else if r < pa +. pb then (0, 1)
        else if r < pa +. pb +. pc then (1, 0)
        else (1, 1)
      in
      u := (!u lsl 1) lor iu;
      v := (!v lsl 1) lor iv
    done;
    (!u, !v)
  in
  let i = ref 0 in
  while !i < m do
    let u, v = gen_edge () in
    if u <> v then begin
      src.(!i) <- u;
      dst.(!i) <- v;
      incr i
    end
  done;
  (* Graph500 permutes vertex labels to break generator locality. *)
  let perm = Array.init n (fun j -> j) in
  Engine.Rng.shuffle rng perm;
  for j = 0 to m - 1 do
    src.(j) <- perm.(src.(j));
    dst.(j) <- perm.(dst.(j))
  done;
  { scale; edge_factor; src; dst }

let num_vertices t = 1 lsl t.scale
let num_edges t = Array.length t.src
