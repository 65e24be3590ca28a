open Chipsim
module Sched = Engine.Sched

type alloc = elt_bytes:int -> count:int -> Simmem.region

let default_morsel = 2048
let compare_ns = 1.5  (* per row comparison in sorts *)
let row_work_ns = 0.6  (* per row of scan logic *)

let parallel_scan ctx table ~columns ?(morsel = default_morsel) f =
  let rows = Table.rows table in
  if rows > 0 then begin
    let cols = List.map (Table.col table) columns in
    Engine.Par.parallel_for ctx ~lo:0 ~hi:rows ~grain:morsel (fun ctx' lo hi ->
        List.iter (fun c -> Column.scan_range ctx' c ~lo ~hi) cols;
        Sched.Ctx.work ctx' (row_work_ns *. float_of_int (hi - lo));
        for row = lo to hi - 1 do
          f ctx' row
        done;
        Sched.Ctx.maybe_yield ctx')
  end

(* Hash-structure charging: every operation touches the bucket's cache
   line in the simulated slab; collisions chain into extra touches. *)
let bucket_of ~capacity key =
  let h = key * 0x9e3779b9 in
  let h = (h lxor (h lsr 16)) land max_int in
  h mod capacity

module Hash_join = struct
  type t = {
    table : (int, int list) Hashtbl.t;
    slab : Simmem.region;
    capacity : int;
    mutable entries : int;
  }

  let create ~alloc ~expected =
    let capacity = max 64 (2 * expected) in
    {
      table = Hashtbl.create (max 16 expected);
      slab = alloc ~elt_bytes:16 ~count:capacity;
      capacity;
      entries = 0;
    }

  let insert ctx t ~key ~payload =
    let b = bucket_of ~capacity:t.capacity key in
    Sched.Ctx.write ctx t.slab b;
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.table key) in
    (* chained entries touch an extra line *)
    if prev <> [] then Sched.Ctx.write ctx t.slab ((b + 1) mod t.capacity);
    Hashtbl.replace t.table key (payload :: prev);
    t.entries <- t.entries + 1

  let probe ctx t ~key =
    let b = bucket_of ~capacity:t.capacity key in
    Sched.Ctx.read ctx t.slab b;
    match Hashtbl.find_opt t.table key with
    | None -> []
    | Some payloads ->
        if List.length payloads > 1 then
          Sched.Ctx.read ctx t.slab ((b + 1) mod t.capacity);
        payloads

  let probe_iter ctx t ~key f = List.iter f (probe ctx t ~key)

  let mem ctx t ~key =
    let b = bucket_of ~capacity:t.capacity key in
    Sched.Ctx.read ctx t.slab b;
    Hashtbl.mem t.table key

  let size t = t.entries
end

module Hash_agg = struct
  type t = {
    table : (int, float array) Hashtbl.t;
    slab : Simmem.region;
    capacity : int;
    width : int;
  }

  let create ~alloc ~expected ~width =
    if width <= 0 then invalid_arg "Hash_agg.create: width must be positive";
    let capacity = max 64 (2 * expected) in
    {
      table = Hashtbl.create (max 16 expected);
      slab = alloc ~elt_bytes:(8 * width) ~count:capacity;
      capacity;
      width;
    }

  let row ctx t ~key =
    let b = bucket_of ~capacity:t.capacity key in
    Sched.Ctx.read ctx t.slab b;
    Sched.Ctx.write ctx t.slab b;
    match Hashtbl.find t.table key with
    | acc -> acc
    | exception Not_found ->
        let acc = Array.make t.width 0.0 in
        Hashtbl.add t.table key acc;
        acc

  let get t ~key = Hashtbl.find_opt t.table key
  let fold t f init = Hashtbl.fold f t.table init
  let groups t = Hashtbl.length t.table
end

let charge_sort ctx ~rows =
  if rows > 1 then begin
    let n = float_of_int rows in
    Sched.Ctx.work ctx (compare_ns *. n *. (log n /. log 2.0))
  end
