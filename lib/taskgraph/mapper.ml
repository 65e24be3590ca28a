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

let usable_chiplets topo = function
  | Some u ->
      if Array.length u = 0 then
        invalid_arg "Mapper.map: usable chiplet set is empty";
      Array.iter
        (fun ch ->
          if ch < 0 || ch >= Topology.num_chiplets topo then
            invalid_arg "Mapper.map: usable chiplet out of range")
        u;
      Array.copy u
  | None -> Array.init (Topology.num_chiplets topo) Fun.id

let map ?usable topo ~policy (g : Graph.t) =
  let usable = usable_chiplets topo usable in
  let n = Graph.num_nodes g in
  let assign =
    match policy with
    | Blind ->
        Array.init n (fun i -> usable.(i mod Array.length usable))
    | Comm_aware ->
        let in_use = Array.make (Topology.num_chiplets topo) false in
        Array.iter (fun ch -> in_use.(ch) <- true) usable;
        let candidates =
          Array.of_list
            (List.filter (fun ch -> in_use.(ch))
               (Array.to_list (hint_order topo)))
        in
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
          1.5 *. Graph.total_cost_ns g
          /. float_of_int (min n (Array.length candidates))
        in
        let edges = Array.copy g.edges in
        Array.sort
          (fun (a : Graph.edge) (b : Graph.edge) ->
            if a.bytes <> b.bytes then compare b.bytes a.bytes
            else compare (a.src, a.dst) (b.src, b.dst))
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
        (* 2. collect clusters, heaviest first (ties by smallest root) *)
        let members = Hashtbl.create 16 in
        for i = n - 1 downto 0 do
          let r = find i in
          Hashtbl.replace members r
            (i :: Option.value ~default:[] (Hashtbl.find_opt members r))
        done;
        let clusters =
          Hashtbl.fold (fun r ms acc -> (r, ms) :: acc) members []
          |> List.sort (fun (ra, _) (rb, _) ->
                 if cost.(ra) <> cost.(rb) then compare cost.(rb) cost.(ra)
                 else compare ra rb)
        in
        (* 3. place each cluster where load + kind-weighted cost is least *)
        let load = Array.make (Topology.num_chiplets topo) 0.0 in
        let assign = Array.make n (-1) in
        List.iter
          (fun (_r, ms) ->
            let cost_on ch =
              let kind = Topology.kind_of_chiplet topo ch in
              List.fold_left
                (fun acc i ->
                  acc +. Graph.scaled_cost_ns topo kind g.Graph.nodes.(i))
                0.0 ms
            in
            let best = ref candidates.(0)
            and best_score = ref Float.infinity in
            Array.iter
              (fun ch ->
                let s = load.(ch) +. cost_on ch in
                if s < !best_score then begin
                  best := ch;
                  best_score := s
                end)
              candidates;
            load.(!best) <- !best_score;
            List.iter (fun i -> assign.(i) <- !best) ms)
          clusters;
        assign
  in
  { policy; assign; cross_bytes = cross_bytes g ~assign }
