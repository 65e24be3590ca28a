module Sched = Engine.Sched
module Exec_env = Workloads.Exec_env
module Workload_result = Workloads.Workload_result

type distribution = Uniform | Zipfian of float

type mix = {
  read_pct : int;
  update_pct : int;
  rmw_pct : int;
  scan_pct : int;
  insert_pct : int;
}

let workload_a = { read_pct = 50; update_pct = 50; rmw_pct = 0; scan_pct = 0; insert_pct = 0 }
let workload_c = { read_pct = 100; update_pct = 0; rmw_pct = 0; scan_pct = 0; insert_pct = 0 }
let workload_e = { read_pct = 0; update_pct = 0; rmw_pct = 5; scan_pct = 95; insert_pct = 0 }
let paper_mix = { read_pct = 45; update_pct = 0; rmw_pct = 55; scan_pct = 0; insert_pct = 0 }

type params = {
  records : int;
  payload_words : int;
  ops : int;
  mix : mix;
  distribution : distribution;
  max_scan : int;
  seed : int;
}

let default_params =
  {
    records = 65_536;
    payload_words = 13;
    ops = 20_000;
    mix = paper_mix;
    distribution = Uniform;
    max_scan = 20;
    seed = 21;
  }

type outcome = {
  result : Workload_result.t;
  commits : int;
  commits_per_second : float;
  reads : int;
  updates : int;
  rmws : int;
  scans : int;
  inserts : int;
  read_sum : int;
}

let mix_sum m = m.read_pct + m.update_pct + m.rmw_pct + m.scan_pct + m.insert_pct

let run env params =
  if mix_sum params.mix <> 100 then
    invalid_arg "Ycsb.run: operation mix must sum to 100";
  let alloc = env.Exec_env.alloc_shared in
  let table =
    Storage.create_table ~alloc ~name:"usertable" ~rows:params.records
      ~payload_words:params.payload_words
  in
  let engine = Txn.create ~alloc () in
  let workers = Exec_env.n_workers env in
  let per_worker = (params.ops + workers - 1) / workers in
  let read_sum = ref 0 in
  let reads = ref 0 and updates = ref 0 and rmws = ref 0 in
  let scans = ref 0 and inserts = ref 0 in
  (* inserts append circularly into the key space (YCSB D/E's growing
     tail, bounded so the table stays fixed-size) *)
  let insert_cursor = ref 0 in
  let makespan =
    env.Exec_env.run (fun ctx ->
        Engine.Par.all_do ctx (fun ctx' w ->
            let rng = Engine.Rng.create (params.seed + w) in
            let pick () =
              match params.distribution with
              | Uniform -> Engine.Rng.int rng params.records
              | Zipfian theta -> Engine.Rng.zipf rng ~n:params.records ~theta
            in
            let m = params.mix in
            for i = 0 to per_worker - 1 do
              let dice = Engine.Rng.int rng 100 in
              if dice < m.read_pct then begin
                incr reads;
                read_sum := !read_sum + Storage.read_record ctx' table (pick ())
              end
              else if dice < m.read_pct + m.update_pct then begin
                incr updates;
                Storage.write_record ctx' table (pick ()) i
              end
              else if dice < m.read_pct + m.update_pct + m.rmw_pct then begin
                incr rmws;
                let key = pick () in
                let v = Storage.read_record ctx' table key in
                Storage.write_record ctx' table key (v + 1)
              end
              else if dice < m.read_pct + m.update_pct + m.rmw_pct + m.scan_pct
              then begin
                incr scans;
                let start = pick () in
                let len = 1 + Engine.Rng.int rng params.max_scan in
                for k = 0 to len - 1 do
                  read_sum :=
                    !read_sum
                    + Storage.read_record ctx' table ((start + k) mod params.records)
                done
              end
              else begin
                incr inserts;
                let key = !insert_cursor mod params.records in
                incr insert_cursor;
                Storage.write_record ctx' table key (i + 1)
              end;
              Txn.commit engine ctx';
              if i land 63 = 63 then Sched.Ctx.maybe_yield ctx'
            done))
  in
  {
    result =
      Workload_result.v ~label:"ycsb" ~makespan_ns:makespan
        ~work_items:(per_worker * workers);
    commits = Txn.commits engine;
    commits_per_second = Txn.commits_per_second engine ~makespan_ns:makespan;
    reads = !reads;
    updates = !updates;
    rmws = !rmws;
    scans = !scans;
    inserts = !inserts;
    read_sum = !read_sum;
  }
