(* Map a task DAG onto chiplets.

   [Blind] is the baseline every topology paper compares against:
   round-robin nodes across chiplets, ignoring both edge weights and
   chiplet kinds.

   [Comm_aware] follows the communication graph: contract the heaviest
   edges first (greedy Kruskal-style union-find) so high-volume producer/
   consumer pairs land inside one chiplet, bounded by a per-cluster
   compute budget so one chiplet does not swallow the whole graph; then
   assign clusters to chiplets heaviest-first, scoring each candidate by
   its current load plus the cluster's kind-weighted cost there — dense
   conv/matmul clusters gravitate to accelerator tiles, glue clusters to
   big cores.  Ties fall back to the [Charm.Placement] visit order, so
   the choice is deterministic and consistent with how CHARM fills
   sockets. *)

open Chipsim

type policy = Blind | Comm_aware

let policy_name = function Blind -> "blind" | Comm_aware -> "comm-aware"

let all_policies = [ Blind; Comm_aware ]

type t = {
  policy : policy;
  assign : int array;  (* node -> global chiplet *)
  cross_bytes : int;
}

let cross_bytes (g : Graph.t) ~assign =
  Array.fold_left
    (fun acc (e : Graph.edge) ->
      if assign.(e.src) <> assign.(e.dst) then acc + e.bytes else acc)
    0 g.edges

(* chiplets in CHARM's placement-hint order: socket by socket, each
   socket's chiplets as [Placement.chiplet_speed_order] visits them *)
let hint_order topo =
  let per_socket = topo.Topology.chiplets_per_socket in
  Array.init (Topology.num_chiplets topo) (fun i ->
      let socket = i / per_socket and k = i mod per_socket in
      (socket * per_socket)
      + (Charm.Placement.chiplet_speed_order topo ~socket).(k))

type prepared = {
  topo : Topology.t;
  hint : int array;  (* every chiplet, in [hint_order] *)
  kind_of : int array;  (* chiplet -> [Topology.kind_index] of its kind *)
}

(* [Topology.kind_index] -> kind *)
let kinds = [| Topology.Big; Topology.Little; Topology.Accel |]

let prepare topo =
  {
    topo;
    hint = hint_order topo;
    kind_of =
      Array.init (Topology.num_chiplets topo) (fun ch ->
          Topology.kind_index (Topology.kind_of_chiplet topo ch));
  }

let check_usable topo u =
  if Array.length u = 0 then invalid_arg "Mapper.map: usable chiplet set is empty";
  Array.iter
    (fun ch ->
      if ch < 0 || ch >= Topology.num_chiplets topo then
        invalid_arg "Mapper.map: usable chiplet out of range")
    u

(* the usable chiplets in hint order *)
let candidates p usable =
  match usable with
  | None -> p.hint
  | Some u ->
      let in_use = Array.make (Array.length p.hint) false in
      Array.iter (fun ch -> in_use.(ch) <- true) u;
      let c = Array.make (Array.fold_left (fun n b -> if b then n + 1 else n) 0 in_use) 0 in
      let j = ref 0 in
      Array.iter
        (fun ch ->
          if in_use.(ch) then begin
            c.(!j) <- ch;
            incr j
          end)
        p.hint;
      c

let comm_aware p ?usable (g : Graph.t) =
  let topo = p.topo in
  let candidates = candidates p usable in
  let n = Graph.num_nodes g in
  (* 1. contract heavy edges under a per-cluster compute budget *)
  let parent = Array.init n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let cost = Array.map (fun (nd : Graph.node) -> nd.cost_ns) g.nodes in
  let budget =
    1.5 *. Graph.total_cost_ns g /. float_of_int (min n (Array.length candidates))
  in
  let edges = Array.copy g.edges in
  Array.sort
    (fun (a : Graph.edge) (b : Graph.edge) ->
      if a.bytes <> b.bytes then Int.compare b.bytes a.bytes
      else if a.src <> b.src then Int.compare a.src b.src
      else Int.compare a.dst b.dst)
    edges;
  Array.iter
    (fun (e : Graph.edge) ->
      let ra = find e.src and rb = find e.dst in
      if ra <> rb && cost.(ra) +. cost.(rb) <= budget then begin
        let keep, drop = if ra < rb then (ra, rb) else (rb, ra) in
        parent.(drop) <- keep;
        cost.(keep) <- cost.(keep) +. cost.(drop)
      end)
    edges;
  (* 2. clusters heaviest first (ties by smallest root), each with its
     members in ascending order as a linked list through [next] *)
  let head = Array.make n (-1) and next = Array.make n (-1) in
  let roots = ref 0 in
  for i = n - 1 downto 0 do
    let r = find i in
    if head.(r) < 0 then incr roots;
    next.(i) <- head.(r);
    head.(r) <- i
  done;
  let clusters = Array.make !roots 0 in
  let j = ref 0 in
  for r = 0 to n - 1 do
    if head.(r) >= 0 then begin
      clusters.(!j) <- r;
      incr j
    end
  done;
  Array.sort
    (fun ra rb ->
      if cost.(ra) <> cost.(rb) then Float.compare cost.(rb) cost.(ra)
      else Int.compare ra rb)
    clusters;
  (* 3. place each cluster where load + kind-weighted cost is least; the
     cluster's cost on each kind is summed once *)
  let load = Array.make (Topology.num_chiplets topo) 0.0 in
  let on_kind = Array.make (Array.length kinds) 0.0 in
  let assign = Array.make n (-1) in
  Array.iter
    (fun r ->
      for k = 0 to Array.length kinds - 1 do
        let acc = ref 0.0 and i = ref head.(r) in
        while !i >= 0 do
          acc := !acc +. Graph.scaled_cost_ns topo kinds.(k) g.Graph.nodes.(!i);
          i := next.(!i)
        done;
        on_kind.(k) <- !acc
      done;
      let best = ref candidates.(0) and best_score = ref Float.infinity in
      for c = 0 to Array.length candidates - 1 do
        let ch = candidates.(c) in
        let s = load.(ch) +. on_kind.(p.kind_of.(ch)) in
        if s < !best_score then begin
          best := ch;
          best_score := s
        end
      done;
      load.(!best) <- !best_score;
      let i = ref head.(r) in
      while !i >= 0 do
        assign.(!i) <- !best;
        i := next.(!i)
      done)
    clusters;
  assign

let map_prepared p ?usable ~policy (g : Graph.t) =
  Option.iter (check_usable p.topo) usable;
  let assign =
    match policy with
    | Blind ->
        let u = match usable with Some u -> u | None -> Array.init (Array.length p.hint) Fun.id in
        Array.init (Graph.num_nodes g) (fun i -> u.(i mod Array.length u))
    | Comm_aware -> comm_aware p ?usable g
  in
  { policy; assign; cross_bytes = cross_bytes g ~assign }

let map ?usable topo ~policy g = map_prepared (prepare topo) ?usable ~policy g
