(* A job as a static task DAG: per-node compute cost (weighted per chiplet
   kind, so accelerator tiles are genuinely faster on the dense
   conv/matmul-class nodes and slower on everything else) and per-edge
   communication volumes.  Like [Chipsim.Topology], a graph is a *value*
   with a small config-file form ([of_string]/[to_string] round-trip), so
   model zoos are data, not code. *)

open Chipsim

type op = Conv | Matmul | Elementwise | Reduce | Embed

let op_name = function
  | Conv -> "conv"
  | Matmul -> "matmul"
  | Elementwise -> "elementwise"
  | Reduce -> "reduce"
  | Embed -> "embed"

let op_of_name = function
  | "conv" -> Some Conv
  | "matmul" -> Some Matmul
  | "elementwise" -> Some Elementwise
  | "reduce" -> Some Reduce
  | "embed" -> Some Embed
  | _ -> None

let all_ops = [ Conv; Matmul; Elementwise; Reduce; Embed ]

let accel_friendly = function
  | Conv | Matmul -> true
  | Elementwise | Reduce | Embed -> false

(* Accelerator tiles run the dense kernels at their full kind speed but
   push everything else (elementwise glue, reductions, embedding lookups)
   through a thin scalar frontend.  The penalty exceeds the default accel
   speed (2.5), so an off-profile node is net *slower* on an accel
   chiplet than on a big core — which is what makes mapping a genuine
   decision rather than "always use the fastest kind". *)
let off_profile_penalty = 3.0

let op_mult (kind : Topology.core_kind) op =
  match kind with
  | Big | Little -> 1.0
  | Accel -> if accel_friendly op then 1.0 else off_profile_penalty

type node = { op : op; cost_ns : float }
type edge = { src : int; dst : int; bytes : int }

type t = {
  name : string;
  nodes : node array;
  edges : edge array;
  preds : int array array;  (* incoming edge indices, per node *)
  succs : int array array;  (* outgoing edge indices, per node *)
  order : int array;  (* a deterministic topological order of node ids *)
}

let name t = t.name
let num_nodes t = Array.length t.nodes
let num_edges t = Array.length t.edges

let total_cost_ns t =
  Array.fold_left (fun acc n -> acc +. n.cost_ns) 0.0 t.nodes

let total_edge_bytes t =
  Array.fold_left (fun acc e -> acc + e.bytes) 0 t.edges

(* effective compute cost of a node on a chiplet of [kind], in ns of a
   big core's time: op-class weighting over the kind's raw speed *)
let scaled_cost_ns topo kind n =
  n.cost_ns *. op_mult kind n.op /. (Topology.spec_of_kind topo kind).Topology.speed

let equal a b = a.name = b.name && a.nodes = b.nodes && a.edges = b.edges

(* edge indices [0, upto) grouped by [key] node, each group in index
   order *)
let group n edges ~upto key =
  let count = Array.make n 0 in
  for i = 0 to upto - 1 do
    let k = key edges.(i) in
    count.(k) <- count.(k) + 1
  done;
  let out = Array.map (fun c -> Array.make c 0) count in
  Array.fill count 0 n 0;
  for i = 0 to upto - 1 do
    let k = key edges.(i) in
    out.(k).(count.(k)) <- i;
    count.(k) <- count.(k) + 1
  done;
  out

let build ~copy ~name ~nodes ~edges =
  let n = Array.length nodes in
  if n = 0 then invalid_arg "Graph.v: a graph needs at least one node";
  Array.iteri
    (fun i nd ->
      if (not (Float.is_finite nd.cost_ns)) || nd.cost_ns <= 0.0 then
        invalid_arg
          (Printf.sprintf "Graph.v: node %d cost %g must be positive" i
             nd.cost_ns))
    nodes;
  let m = Array.length edges in
  (* the first edge out of range, a self-edge or with negative bytes *)
  let bad = ref m in
  (try
     for i = 0 to m - 1 do
       let e = edges.(i) in
       if e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n || e.src = e.dst || e.bytes < 0
       then begin
         bad := i;
         raise Exit
       end
     done
   with Exit -> ());
  let preds = group n edges ~upto:!bad (fun e -> e.dst)
  and succs = group n edges ~upto:!bad (fun e -> e.src) in
  (* the first edge before [bad] repeating an earlier edge's (src, dst):
     an edge is checked for repeats after its own checks, so that error
     is reported only if it comes first *)
  let dup = ref m and seen_from = Array.make n (-1) in
  Array.iteri
    (fun src out ->
      Array.iter
        (fun ei ->
          let dst = edges.(ei).dst in
          if seen_from.(dst) = src then dup := min !dup ei else seen_from.(dst) <- src)
        out)
    succs;
  if !dup < !bad then
    invalid_arg
      (Printf.sprintf "Graph.v: duplicate edge %d -> %d" edges.(!dup).src edges.(!dup).dst);
  if !bad < m then begin
    let e = edges.(!bad) in
    if e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n then
      invalid_arg
        (Printf.sprintf "Graph.v: edge %d -> %d references a node outside [0,%d)"
           e.src e.dst n);
    if e.src = e.dst then
      invalid_arg (Printf.sprintf "Graph.v: self-edge on node %d" e.src);
    invalid_arg
      (Printf.sprintf "Graph.v: edge %d -> %d has negative bytes" e.src e.dst)
  end;
  (* Kahn's algorithm, always picking the smallest ready node id: rejects
     cycles and yields one deterministic topological order *)
  let indeg = Array.map Array.length preds in
  let order = Array.make n (-1) in
  let placed = ref 0 in
  (try
     while !placed < n do
       let pick = ref (-1) in
       for i = n - 1 downto 0 do
         if indeg.(i) = 0 then pick := i
       done;
       if !pick < 0 then raise Exit;
       order.(!placed) <- !pick;
       incr placed;
       indeg.(!pick) <- -1;
       Array.iter (fun ei -> indeg.(edges.(ei).dst) <- indeg.(edges.(ei).dst) - 1)
         succs.(!pick)
     done
   with Exit ->
     let culprit = ref 0 in
     for i = n - 1 downto 0 do
       if indeg.(i) > 0 then culprit := i
     done;
     invalid_arg (Printf.sprintf "Graph.v: cycle through node %d" !culprit));
  let nodes, edges = if copy then (Array.copy nodes, Array.copy edges) else (nodes, edges) in
  { name; nodes; edges; preds; succs; order }

let v ~name ~nodes ~edges = build ~copy:true ~name ~nodes ~edges

(* -- deterministic generator --------------------------------------------- *)

type shape = Chain | Inception | Fanout

let shape_name = function
  | Chain -> "chain"
  | Inception -> "inception"
  | Fanout -> "fanout"

let shape_of_name = function
  | "chain" -> Some Chain
  | "inception" -> Some Inception
  | "fanout" -> Some Fanout
  | _ -> None

let all_shapes = [ Chain; Inception; Fanout ]

let kib = 1024

(* cost and volume draws: dense nodes are an order of magnitude heavier
   than glue nodes, and inter-layer activations vary enough that edge
   weight genuinely orders the mapper's contraction choices *)
let dense_cost rng = 8_000.0 +. Engine.Rng.float rng 8_000.0
let glue_cost rng = 1_200.0 +. Engine.Rng.float rng 1_800.0
let heavy_bytes rng = (32 * kib) + Engine.Rng.int rng (96 * kib)
let light_bytes rng = (2 * kib) + Engine.Rng.int rng (6 * kib)

let generate ~shape ~layers ~seed () =
  if layers < 1 then invalid_arg "Graph.generate: layers must be >= 1";
  let rng = Engine.Rng.create (0x7a5c0de + (seed * 31) + layers) in
  let nodes = ref [] and edges = ref [] and count = ref 0 in
  let add_node op cost =
    nodes := { op; cost_ns = cost } :: !nodes;
    incr count;
    !count - 1
  in
  let add_edge src dst bytes = edges := { src; dst; bytes } :: !edges in
  let name =
    String.concat "-" [ shape_name shape; string_of_int layers; string_of_int seed ]
  in
  (match shape with
  | Chain ->
      (* a DNN backbone: embed -> (conv|matmul / elementwise)* -> reduce *)
      let prev = ref (add_node Embed (glue_cost rng)) in
      for l = 1 to layers do
        let op =
          if l mod 2 = 1 then if Engine.Rng.bool rng then Conv else Matmul
          else Elementwise
        in
        let cost = if accel_friendly op then dense_cost rng else glue_cost rng in
        let n = add_node op cost in
        add_edge !prev n (heavy_bytes rng);
        prev := n
      done;
      let head = add_node Reduce (glue_cost rng) in
      add_edge !prev head (light_bytes rng)
  | Inception ->
      (* branchy inception blocks: each layer splits into 2-4 parallel
         dense branches that re-join in a reduce node *)
      let prev = ref (add_node Embed (glue_cost rng)) in
      for _l = 1 to layers do
        let branches = 2 + Engine.Rng.int rng 3 in
        let join = ref [] in
        for _b = 1 to branches do
          let op = if Engine.Rng.bool rng then Conv else Matmul in
          let n = add_node op (dense_cost rng) in
          add_edge !prev n (heavy_bytes rng);
          join := n :: !join
        done;
        let j = add_node Reduce (glue_cost rng) in
        List.iter (fun b -> add_edge b j (heavy_bytes rng)) (List.rev !join);
        prev := j
      done
  | Fanout ->
      (* microservice fan-out: a front-end embeds the request, [layers]
         independent services work on it, an aggregator reduces replies *)
      let root = add_node Embed (glue_cost rng) in
      let agg_deps = ref [] in
      for _s = 1 to layers do
        let op = if Engine.Rng.int rng 3 = 0 then Matmul else Elementwise in
        let cost = if accel_friendly op then dense_cost rng else glue_cost rng in
        let n = add_node op cost in
        add_edge root n (light_bytes rng);
        agg_deps := n :: !agg_deps
      done;
      let agg = add_node Reduce (glue_cost rng) in
      List.iter (fun s -> add_edge s agg (heavy_bytes rng)) (List.rev !agg_deps));
  (* the arrays are fresh, so [v]'s defensive copies are skipped *)
  build ~copy:false ~name
    ~nodes:(Array.of_list (List.rev !nodes))
    ~edges:(Array.of_list (List.rev !edges))

(* -- config-file format ---------------------------------------------------

   One directive per line (or ';'-separated); '#' starts a comment.  Byte
   sizes accept KiB/MiB/GiB suffixes.

     name tiny-resnet
     node 0 embed 1500
     node 1 conv 9000
     edge 0 1 64KiB                                                       *)

let format_bytes b =
  let mib = 1024 * 1024 in
  if b >= mib && b mod mib = 0 then Printf.sprintf "%dMiB" (b / mib)
  else if b >= 1024 && b mod 1024 = 0 then Printf.sprintf "%dKiB" (b / 1024)
  else string_of_int b

let parse_bytes s =
  let num, mult =
    let n = String.length s in
    let suffix k m =
      if
        n > String.length k
        && String.sub s (n - String.length k) (String.length k) = k
      then Some (String.sub s 0 (n - String.length k), m)
      else None
    in
    match suffix "GiB" (1024 * 1024 * 1024) with
    | Some r -> r
    | None -> (
        match suffix "MiB" (1024 * 1024) with
        | Some r -> r
        | None -> ( match suffix "KiB" 1024 with Some r -> r | None -> (s, 1)))
  in
  match int_of_string_opt num with
  | Some v when v >= 0 -> Some (v * mult)
  | _ -> None

let format_float f =
  let s = Printf.sprintf "%g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_lines t =
  let buf = ref [] in
  let add l = buf := l :: !buf in
  add (Printf.sprintf "name %s" t.name);
  Array.iteri
    (fun i n ->
      add
        (Printf.sprintf "node %d %s %s" i (op_name n.op) (format_float n.cost_ns)))
    t.nodes;
  Array.iter
    (fun e ->
      add (Printf.sprintf "edge %d %d %s" e.src e.dst (format_bytes e.bytes)))
    t.edges;
  List.rev !buf

let to_string t = String.concat "\n" (to_lines t) ^ "\n"
let to_spec t = String.concat "; " (to_lines t)

let pp ppf t =
  Format.fprintf ppf "%s: %d node(s), %d edge(s), %.1fus compute, %s comm"
    t.name (num_nodes t) (num_edges t)
    (total_cost_ns t /. 1e3)
    (format_bytes (total_edge_bytes t))

let of_string spec =
  let strip_comment line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let directives =
    String.split_on_char '\n' spec
    |> List.map strip_comment
    |> List.concat_map (String.split_on_char ';')
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let tokens_of line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun tok -> tok <> "")
  in
  let name = ref "dag" and nodes = ref [] and edges = ref [] in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  List.iter
    (fun line ->
      if !err = None then
        match tokens_of line with
        | [ "name"; n ] -> name := n
        | "name" :: _ -> fail "bad name directive: expected a single token"
        | [ "node"; id; op; cost ] -> (
            match int_of_string_opt id with
            | None ->
                fail (Printf.sprintf "bad node directive: id %S is not an integer" id)
            | Some id -> (
                match op_of_name op with
                | None ->
                    fail
                      (Printf.sprintf
                         "unknown op %S (want %s)" op
                         (String.concat "/" (List.map op_name all_ops)))
                | Some op -> (
                    match float_of_string_opt cost with
                    | Some c when Float.is_finite c ->
                        nodes := (id, { op; cost_ns = c }) :: !nodes
                    | _ ->
                        fail
                          (Printf.sprintf
                             "bad node directive: cost %S is not a number" cost))))
        | "node" :: _ -> fail "bad node directive: want node ID OP COST_NS"
        | [ "edge"; src; dst; bytes ] -> (
            match (int_of_string_opt src, int_of_string_opt dst) with
            | None, _ ->
                fail
                  (Printf.sprintf "bad edge directive: src %S is not an integer" src)
            | _, None ->
                fail
                  (Printf.sprintf "bad edge directive: dst %S is not an integer" dst)
            | Some src, Some dst -> (
                match parse_bytes bytes with
                | Some b -> edges := { src; dst; bytes = b } :: !edges
                | None ->
                    fail
                      (Printf.sprintf
                         "bad edge directive: bytes %S is not a size (int with \
                          optional KiB/MiB/GiB)"
                         bytes)))
        | "edge" :: _ -> fail "bad edge directive: want edge SRC DST BYTES"
        | key :: _ -> fail (Printf.sprintf "unknown task-graph field %S in %S" key line)
        | [] -> ())
    directives;
  match !err with
  | Some m -> Error m
  | None -> (
      let nodes = List.rev !nodes in
      let n = List.length nodes in
      if n = 0 then Error "a task graph needs at least one node directive"
      else begin
        let arr = Array.make n None in
        let dup = ref None in
        List.iter
          (fun (id, nd) ->
            match !dup with
            | Some _ -> ()
            | None ->
                if id < 0 || id >= n then
                  dup :=
                    Some
                      (Printf.sprintf
                         "node ids must be dense 0..%d but found node %d" (n - 1)
                         id)
                else if arr.(id) <> None then
                  dup := Some (Printf.sprintf "duplicate node id %d" id)
                else arr.(id) <- Some nd)
          nodes;
        match !dup with
        | Some m -> Error m
        | None -> (
            let nodes =
              Array.map (function Some nd -> nd | None -> assert false) arr
            in
            let edges = Array.of_list (List.rev !edges) in
            match v ~name:!name ~nodes ~edges with
            | t -> Ok t
            | exception Invalid_argument m -> Error m)
      end)

let of_file path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      let spec =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      of_string spec
