(** YCSB over the OLTP engine.

    The paper's §5.7 configuration (single table, uniform keys, 45%% reads
    / 55%% read-modify-writes) is [default_params]; YCSB core workloads A
    and C and a scan-heavy E-shaped mix are also provided, with uniform or
    Zipfian request distributions. *)

type distribution = Uniform | Zipfian of float  (** skew theta, e.g. 0.99 *)

type mix = {
  read_pct : int;
  update_pct : int;  (** blind writes *)
  rmw_pct : int;
  scan_pct : int;  (** short scans of up to [max_scan] records *)
  insert_pct : int;  (** appends into the key space *)
}
(** Percentages; must sum to 100. *)

val workload_a : mix
(** 50 read / 50 update *)

val workload_c : mix
(** 100 read *)

val workload_e : mix
(** 95 scan / 5 read-modify-write (not YCSB-E's scan + insert: no
    inserts are generated) *)

val paper_mix : mix
(** 45 read / 55 read-modify-write (paper §5.1) *)

type params = {
  records : int;
  payload_words : int;
  ops : int;  (** total operations (one per transaction) *)
  mix : mix;
  distribution : distribution;
  max_scan : int;
  seed : int;
}

val default_params : params
(** The paper's configuration: [paper_mix], uniform keys. *)

type outcome = {
  result : Workloads.Workload_result.t;
  commits : int;
  commits_per_second : float;
  reads : int;
  updates : int;
  rmws : int;
  scans : int;
  inserts : int;
  read_sum : int;  (** checksum over read values (determinism probe) *)
}

val run : Workloads.Exec_env.t -> params -> outcome
(** @raise Invalid_argument if the mix does not sum to 100. *)
