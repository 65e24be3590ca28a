(** Per-worker performance profiler (paper §4.5).

    Reads the simulated PMU exactly as CHARM reads
    [ANY_DATA_CACHE_FILLS_FROM_SYSTEM] on AMD hardware: each worker keeps a
    baseline of its current core's fill counters and consumes deltas at
    every scheduling-policy tick.  Profiling charges a small per-check
    overhead to the worker, modelling the paper's 5–10%% polling cost. *)

open Chipsim

type sample = {
  local_hits : int;  (** L3 fills served by the local chiplet slice *)
  remote_chiplet : int;  (** fills served by another chiplet, same socket *)
  remote_numa : int;  (** fills served from the other socket's caches *)
  dram : int;  (** fills served from memory (either node) *)
}

val remote_events : sample -> int
(** The Alg. 1 counter: [remote_chiplet + remote_numa + dram]. *)

type t

val create : Machine.t -> n_workers:int -> t

val read : t -> worker:int -> core:int -> sample
(** Fill-event deltas on [core] since this worker's last {!reset}. *)

type fill = Local | Remote_chiplet | Remote_numa | Dram

val since : t -> worker:int -> core:int -> fill -> int
(** One field of {!read}, without building the sample. *)

val reset : t -> worker:int -> core:int -> unit
(** Re-baseline after a policy decision (Alg. 1 line 18) or a migration. *)

val cumulative : t -> worker:int -> sample
(** All deltas this worker has ever consumed (for end-of-run statistics). *)

val rebase : t -> worker:int -> core:int -> unit
(** Set the baseline to [core]'s current counters {e without} accumulating a
    delta — used right after a migration, when the old baseline refers to a
    different core's counters. *)
