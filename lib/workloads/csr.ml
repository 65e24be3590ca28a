open Chipsim

type t = {
  n : int;
  m : int;
  row_ptr : int array;
  col : int array;
  weight : int array;
  sim_row : Simmem.region;
  sim_col : Simmem.region;
  sim_weight : Simmem.region;
}

(* weights, columns, then row pointers: the order, and so the simulated
   address layout, every recorded baseline was run with *)
let alloc_regions ~alloc ~n ~m =
  let sim_weight = alloc ~elt_bytes:8 ~count:(max m 1) in
  let sim_col = alloc ~elt_bytes:8 ~count:(max m 1) in
  let sim_row = alloc ~elt_bytes:8 ~count:(n + 1) in
  (sim_row, sim_col, sim_weight)

let of_edges ~alloc ~n ~src ~dst ?weights () =
  let m = Array.length src in
  if Array.length dst <> m then invalid_arg "Csr.of_edges: src/dst length mismatch";
  Array.iter
    (fun v -> if v < 0 || v >= n then invalid_arg "Csr.of_edges: vertex out of range")
    src;
  Array.iter
    (fun v -> if v < 0 || v >= n then invalid_arg "Csr.of_edges: vertex out of range")
    dst;
  let weight =
    match weights with
    | Some w ->
        if Array.length w <> m then invalid_arg "Csr.of_edges: weights length mismatch";
        w
    | None -> Array.make m 1
  in
  (* counting sort by source *)
  let row_ptr = Array.make (n + 1) 0 in
  Array.iter (fun u -> row_ptr.(u + 1) <- row_ptr.(u + 1) + 1) src;
  for i = 1 to n do
    row_ptr.(i) <- row_ptr.(i) + row_ptr.(i - 1)
  done;
  let col = Array.make m 0 and wout = Array.make m 0 in
  let cursor = Array.copy row_ptr in
  for e = 0 to m - 1 do
    let u = src.(e) in
    col.(cursor.(u)) <- dst.(e);
    wout.(cursor.(u)) <- weight.(e);
    cursor.(u) <- cursor.(u) + 1
  done;
  let sim_row, sim_col, sim_weight = alloc_regions ~alloc ~n ~m in
  { n; m; row_ptr; col; weight = wout; sim_row; sim_col; sim_weight }

let with_regions ~alloc g =
  let sim_row, sim_col, sim_weight = alloc_regions ~alloc ~n:g.n ~m:g.m in
  { g with sim_row; sim_col; sim_weight }

let reserve_kronecker ~alloc ~scale ~edge_factor =
  Kronecker.check_size ~scale ~edge_factor;
  (* [of_kronecker] symmetrises the generator's [edge_factor * 2^scale]
     edges *)
  let n = 1 lsl scale in
  ignore (alloc_regions ~alloc ~n ~m:(2 * edge_factor * n))

let of_kronecker ~alloc ?(weighted = false) ?(seed = 7) kron =
  let m = Kronecker.num_edges kron in
  let n = Kronecker.num_vertices kron in
  (* symmetrise: each generated edge appears in both directions *)
  let src = Array.make (2 * m) 0 and dst = Array.make (2 * m) 0 in
  Array.blit kron.Kronecker.src 0 src 0 m;
  Array.blit kron.Kronecker.dst 0 dst 0 m;
  Array.blit kron.Kronecker.dst 0 src m m;
  Array.blit kron.Kronecker.src 0 dst m m;
  let weights =
    if weighted then begin
      let rng = Engine.Rng.create seed in
      Some (Array.init (2 * m) (fun _ -> 1 + Engine.Rng.int rng 255))
    end
    else None
  in
  of_edges ~alloc ~n ~src ~dst ?weights ()

let degree t u = t.row_ptr.(u + 1) - t.row_ptr.(u)

let out_neighbors t u f =
  for e = t.row_ptr.(u) to t.row_ptr.(u + 1) - 1 do
    f t.col.(e) t.weight.(e)
  done

let read_adj ctx t u =
  Engine.Sched.Ctx.read ctx t.sim_row u;
  let lo = t.row_ptr.(u) and hi = t.row_ptr.(u + 1) in
  if hi > lo then Engine.Sched.Ctx.read_range ctx t.sim_col ~lo ~hi
