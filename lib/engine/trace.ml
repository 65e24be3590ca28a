type job_phase = Admit | Shed | Start | Finish

let job_phase_name = function
  | Admit -> "admit"
  | Shed -> "shed"
  | Start -> "start"
  | Finish -> "finish"

type fleet_phase = Route | Relocate | Router_shed

let fleet_phase_name = function
  | Route -> "route"
  | Relocate -> "relocate"
  | Router_shed -> "router-shed"

type event =
  | Quantum of { worker : int; core : int; task_id : int; start_ns : float; end_ns : float }
  | Steal of { thief : int; victim : int; task_id : int; at_ns : float }
  | Park of { worker : int; at_ns : float }
  | Migration of { worker : int; from_core : int; to_core : int; at_ns : float }
  | Spread_change of { worker : int; old_spread : int; new_spread : int; at_ns : float }
  | Mode_switch of { from_mode : string; to_mode : string; at_ns : float }
  | Job of { phase : job_phase; tenant : string; kind : string; job_id : int; at_ns : float }
  | Counter of { name : string; at_ns : float; series : (string * float) list }
  | Instant of { name : string; at_ns : float }
  | Fault of { desc : string; at_ns : float }
  | Fleet of {
      phase : fleet_phase;
      job_id : int;
      tenant : string;
      shard : int;  (** destination shard ([-1] for a router shed) *)
      from_shard : int;  (** source shard for relocations, [-1] otherwise *)
      at_ns : float;
    }
  | Dag_node of {
      tenant : string;
      job_id : int;
      node : int;
      op : string;
      chiplet : int;
      start_ns : float;
      end_ns : float;
    }

(* Fixed-capacity ring: when full the oldest event is overwritten, so a
   long serving run keeps the newest window instead of growing without
   bound.  [head] is the next write slot; the oldest retained event sits
   [len] slots behind it. *)
type t = {
  buf : event array;
  capacity : int;
  pid : int;
  name : string option;
  mutable head : int;
  mutable len : int;
  mutable dropped : int;
}

let default_capacity = 1 lsl 18

let create ?(capacity = default_capacity) ?(pid = 0) ?name () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    buf = Array.make capacity (Instant { name = ""; at_ns = 0.0 });
    capacity;
    pid;
    name;
    head = 0;
    len = 0;
    dropped = 0;
  }

let pid t = t.pid

let capacity t = t.capacity
let num_events t = t.len
let dropped t = t.dropped

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0

let push t e =
  t.buf.(t.head) <- e;
  t.head <- (t.head + 1) mod t.capacity;
  if t.len < t.capacity then t.len <- t.len + 1 else t.dropped <- t.dropped + 1

(* oldest-first iteration over the retained window *)
let iter t f =
  let start = (t.head - t.len + t.capacity) mod t.capacity in
  for i = 0 to t.len - 1 do
    f t.buf.((start + i) mod t.capacity)
  done

let events t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

let task_quantum t ~worker ~core ~task_id ~start_ns ~end_ns =
  push t (Quantum { worker; core; task_id; start_ns; end_ns })

let steal t ~thief ~victim ~task_id ~at_ns = push t (Steal { thief; victim; task_id; at_ns })
let park t ~worker ~at_ns = push t (Park { worker; at_ns })

let migration t ~worker ~from_core ~to_core ~at_ns =
  push t (Migration { worker; from_core; to_core; at_ns })

let spread_change t ~worker ~old_spread ~new_spread ~at_ns =
  push t (Spread_change { worker; old_spread; new_spread; at_ns })

let mode_switch t ~from_mode ~to_mode ~at_ns =
  push t (Mode_switch { from_mode; to_mode; at_ns })

let job t ~phase ~tenant ~kind ~job_id ~at_ns =
  push t (Job { phase; tenant; kind; job_id; at_ns })

let counter t ~name ~at_ns ~series = push t (Counter { name; at_ns; series })
let instant t ~name ~at_ns = push t (Instant { name; at_ns })
let fault t ~desc ~at_ns = push t (Fault { desc; at_ns })

let fleet_route t ~job_id ~tenant ~shard ~at_ns =
  push t (Fleet { phase = Route; job_id; tenant; shard; from_shard = -1; at_ns })

let fleet_relocate t ~job_id ~from_shard ~to_shard ~at_ns =
  push t
    (Fleet
       { phase = Relocate; job_id; tenant = ""; shard = to_shard; from_shard; at_ns })

let fleet_shed t ~job_id ~tenant ~at_ns =
  push t
    (Fleet { phase = Router_shed; job_id; tenant; shard = -1; from_shard = -1; at_ns })

let dag_node t ~tenant ~job_id ~node ~op ~chiplet ~start_ns ~end_ns =
  push t (Dag_node { tenant; job_id; node; op; chiplet; start_ns; end_ns })

(* -- Chrome trace-event JSON -------------------------------------------- *)

let us ns = ns /. 1000.0

let event_json pid = function
  | Quantum { worker; core; task_id; start_ns; end_ns } ->
      Printf.sprintf
        {|{"name":"task %d","cat":"quantum","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"core":%d,"task":%d}}|}
        task_id (us start_ns)
        (us (Float.max 0.0 (end_ns -. start_ns)))
        pid worker core task_id
  | Steal { thief; victim; task_id; at_ns } ->
      Printf.sprintf
        {|{"name":"steal task %d from w%d","cat":"steal","ph":"i","ts":%.3f,"pid":%d,"tid":%d,"s":"t","args":{"victim":%d,"task":%d}}|}
        task_id victim (us at_ns) pid thief victim task_id
  | Park { worker; at_ns } ->
      Printf.sprintf
        {|{"name":"park","cat":"park","ph":"i","ts":%.3f,"pid":%d,"tid":%d,"s":"t"}|}
        (us at_ns) pid worker
  | Migration { worker; from_core; to_core; at_ns } ->
      Printf.sprintf
        {|{"name":"migrate %d->%d","cat":"migration","ph":"i","ts":%.3f,"pid":%d,"tid":%d,"s":"t"}|}
        from_core to_core (us at_ns) pid worker
  | Spread_change { worker; old_spread; new_spread; at_ns } ->
      Printf.sprintf
        {|{"name":"spread %d->%d","cat":"policy","ph":"i","ts":%.3f,"pid":%d,"tid":%d,"s":"t","args":{"old":%d,"new":%d}}|}
        old_spread new_spread (us at_ns) pid worker old_spread new_spread
  | Mode_switch { from_mode; to_mode; at_ns } ->
      Printf.sprintf
        {|{"name":"mode %s->%s","cat":"policy","ph":"i","ts":%.3f,"pid":%d,"tid":0,"s":"g"}|}
        (Json.escape from_mode) (Json.escape to_mode) (us at_ns) pid
  | Job { phase; tenant; kind; job_id; at_ns } ->
      Printf.sprintf
        {|{"name":"%s %s/%s#%d","cat":"job","ph":"i","ts":%.3f,"pid":%d,"tid":0,"s":"g","args":{"phase":"%s","tenant":"%s","kind":"%s","id":%d}}|}
        (job_phase_name phase) (Json.escape tenant) (Json.escape kind) job_id (us at_ns)
        pid (job_phase_name phase) (Json.escape tenant) (Json.escape kind) job_id
  | Counter { name; at_ns; series } ->
      let args =
        String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf {|"%s":%.3f|} (Json.escape k) v)
             series)
      in
      Printf.sprintf {|{"name":"%s","cat":"counter","ph":"C","ts":%.3f,"pid":%d,"args":{%s}}|}
        (Json.escape name) (us at_ns) pid args
  | Instant { name; at_ns } ->
      Printf.sprintf
        {|{"name":"%s","cat":"marker","ph":"i","ts":%.3f,"pid":%d,"tid":0,"s":"g"}|}
        (Json.escape name) (us at_ns) pid
  | Fault { desc; at_ns } ->
      Printf.sprintf
        {|{"name":"%s","cat":"fault","ph":"i","ts":%.3f,"pid":%d,"tid":0,"s":"g"}|}
        (Json.escape desc) (us at_ns) pid
  | Fleet { phase; job_id; tenant; shard; from_shard; at_ns } ->
      let name =
        match phase with
        | Route ->
            Printf.sprintf "route %s#%d -> shard %d" (Json.escape tenant) job_id shard
        | Relocate ->
            Printf.sprintf "relocate #%d shard %d -> %d" job_id from_shard shard
        | Router_shed ->
            Printf.sprintf "router shed %s#%d" (Json.escape tenant) job_id
      in
      Printf.sprintf
        {|{"name":"%s","cat":"fleet","ph":"i","ts":%.3f,"pid":%d,"tid":0,"s":"g","args":{"phase":"%s","id":%d,"shard":%d,"from":%d}}|}
        name (us at_ns) pid (fleet_phase_name phase) job_id shard from_shard
  | Dag_node { tenant; job_id; node; op; chiplet; start_ns; end_ns } ->
      (* node-lifecycle track: one duration row per chiplet, offset past
         the worker tids so DAG rows group separately in the viewer *)
      Printf.sprintf
        {|{"name":"%s#%d n%d %s","cat":"dag","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"tenant":"%s","id":%d,"node":%d,"op":"%s","chiplet":%d}}|}
        (Json.escape tenant) job_id node (Json.escape op) (us start_ns)
        (us (Float.max 0.0 (end_ns -. start_ns)))
        pid (1000 + chiplet) (Json.escape tenant) job_id node (Json.escape op) chiplet

(* One JSON array over [ts]: each trace renders under its own pid, so every
   shard of a multi-machine (fleet) run gets its own process row; with
   [meta], labelled traces first get a process_name metadata row. *)
let render ~meta ts =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  let first = ref true in
  let emit s =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf s
  in
  if meta then
    List.iter
      (fun t ->
        Option.iter
          (fun n ->
            emit
              (Printf.sprintf
                 {|{"name":"process_name","ph":"M","pid":%d,"args":{"name":"%s"}}|}
                 t.pid (Json.escape n)))
          t.name)
      ts;
  List.iter (fun t -> iter t (fun e -> emit (event_json t.pid e))) ts;
  Buffer.add_string buf "]";
  Buffer.contents buf

let to_chrome_json t = render ~meta:false [ t ]
let to_chrome_json_merged ts = render ~meta:true ts

let write file json =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc json;
      output_char oc '\n')

let save t file = write file (to_chrome_json t)
let save_merged ts file = write file (to_chrome_json_merged ts)

(* -- text summary ------------------------------------------------------- *)

let category = function
  | Quantum _ -> "quantum"
  | Steal _ -> "steal"
  | Park _ -> "park"
  | Migration _ -> "migration"
  | Spread_change _ | Mode_switch _ -> "policy"
  | Job _ -> "job"
  | Counter _ -> "counter"
  | Instant _ -> "marker"
  | Fault _ -> "fault"
  | Fleet _ -> "fleet"
  | Dag_node _ -> "dag"

let summary t =
  let b = Buffer.create 1024 in
  let cats = Hashtbl.create 8 in
  let migrations = ref 0 and migrating_workers = Hashtbl.create 8 in
  let spread_timeline = ref [] in
  let job_phases = Hashtbl.create 4 in
  let fleet_phases = Hashtbl.create 4 in
  iter t (fun e ->
      let c = category e in
      Hashtbl.replace cats c (1 + Option.value ~default:0 (Hashtbl.find_opt cats c));
      match e with
      | Migration { worker; _ } ->
          incr migrations;
          Hashtbl.replace migrating_workers worker ()
      | Spread_change { worker; old_spread; new_spread; at_ns } ->
          spread_timeline := (at_ns, worker, old_spread, new_spread) :: !spread_timeline
      | Job { phase; _ } ->
          let p = job_phase_name phase in
          Hashtbl.replace job_phases p
            (1 + Option.value ~default:0 (Hashtbl.find_opt job_phases p))
      | Fleet { phase; _ } ->
          let p = fleet_phase_name phase in
          Hashtbl.replace fleet_phases p
            (1 + Option.value ~default:0 (Hashtbl.find_opt fleet_phases p))
      | _ -> ());
  Buffer.add_string b
    (Printf.sprintf "trace: %d events retained (%d dropped, capacity %d)\n"
       t.len t.dropped t.capacity);
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (c, n) -> Buffer.add_string b (Printf.sprintf "  %-10s %8d\n" c n))
    (sorted cats);
  if !migrations > 0 then
    Buffer.add_string b
      (Printf.sprintf "migration churn: %d migrations across %d workers\n"
         !migrations (Hashtbl.length migrating_workers));
  (match sorted job_phases with
  | [] -> ()
  | phases ->
      Buffer.add_string b "jobs:";
      List.iter
        (fun (p, n) -> Buffer.add_string b (Printf.sprintf " %s=%d" p n))
        phases;
      Buffer.add_char b '\n');
  (match sorted fleet_phases with
  | [] -> ()
  | phases ->
      Buffer.add_string b "fleet:";
      List.iter
        (fun (p, n) -> Buffer.add_string b (Printf.sprintf " %s=%d" p n))
        phases;
      Buffer.add_char b '\n');
  let timeline = List.rev !spread_timeline in
  if timeline <> [] then begin
    Buffer.add_string b "spread timeline (first 32):\n";
    List.iteri
      (fun i (at_ns, worker, old_s, new_s) ->
        if i < 32 then
          Buffer.add_string b
            (Printf.sprintf "  t=%12.1fns w%-3d spread %d -> %d\n" at_ns worker
               old_s new_s))
      timeline;
    if List.length timeline > 32 then
      Buffer.add_string b
        (Printf.sprintf "  ... %d more\n" (List.length timeline - 32))
  end;
  Buffer.contents b
