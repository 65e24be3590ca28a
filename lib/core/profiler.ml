open Chipsim

type sample = {
  local_hits : int;
  remote_chiplet : int;
  remote_numa : int;
  dram : int;
}

let remote_events s = s.remote_chiplet + s.remote_numa + s.dram

type fill = Local | Remote_chiplet | Remote_numa | Dram

let fills = 4
let slot = function Local -> 0 | Remote_chiplet -> 1 | Remote_numa -> 2 | Dram -> 3

(* per worker, [fills] counters each, in [slot] order: flat int arrays
   so a policy tick reads and re-baselines without allocating *)
type t = {
  machine : Machine.t;
  baselines : int array;  (* counter values at last reset *)
  consumed : int array;  (* total deltas seen *)
}

let create machine ~n_workers =
  if n_workers <= 0 then invalid_arg "Profiler.create: n_workers must be positive";
  {
    machine;
    baselines = Array.make (n_workers * fills) 0;
    consumed = Array.make (n_workers * fills) 0;
  }

let raw t ~core fill =
  let pmu = Machine.pmu t.machine in
  match fill with
  | Local -> Pmu.read pmu ~core Pmu.L3_local_hit
  | Remote_chiplet -> Pmu.read pmu ~core Pmu.Fill_remote_chiplet
  | Remote_numa -> Pmu.read pmu ~core Pmu.Fill_remote_numa
  | Dram -> Pmu.read pmu ~core Pmu.Dram_local + Pmu.read pmu ~core Pmu.Dram_remote

let since t ~worker ~core fill =
  raw t ~core fill - t.baselines.((worker * fills) + slot fill)

let read t ~worker ~core =
  {
    local_hits = since t ~worker ~core Local;
    remote_chiplet = since t ~worker ~core Remote_chiplet;
    remote_numa = since t ~worker ~core Remote_numa;
    dram = since t ~worker ~core Dram;
  }

let all_fills = [| Local; Remote_chiplet; Remote_numa; Dram |]

let reset t ~worker ~core =
  for k = 0 to fills - 1 do
    let now = raw t ~core all_fills.(k) and i = (worker * fills) + k in
    t.consumed.(i) <- t.consumed.(i) + (now - t.baselines.(i));
    t.baselines.(i) <- now
  done

let cumulative t ~worker =
  let c k = t.consumed.((worker * fills) + k) in
  { local_hits = c 0; remote_chiplet = c 1; remote_numa = c 2; dram = c 3 }

let rebase t ~worker ~core =
  for k = 0 to fills - 1 do
    t.baselines.((worker * fills) + k) <- raw t ~core all_fills.(k)
  done
