(** The unit of admission: one job of a known kind over shared datasets.

    Serving runs thousands of small requests against datasets that are
    loaded once ({!prepare}) — the multi-tenant analogue of the paper's
    one-shot workloads: BFS and PageRank reuse [lib/workloads]' in-task
    kernels over one shared graph, TPC-H queries run against one shared
    column store, YCSB batches hit one shared table through the OLTP
    engine, and GUPS batches pound one shared update table. *)

type kind =
  | Bfs  (** one traversal from a per-job pseudorandom source *)
  | Pagerank  (** a short fixed-iteration PageRank *)
  | Gups of int  (** that many random read-modify-writes *)
  | Tpch of int  (** one of the 22 TPC-H-shaped queries *)
  | Ycsb_batch of int  (** that many paper-mix transactions *)
  | Dag of Taskgraph.Graph.shape * int
      (** one generated task-DAG inference job of that shape with that
          many layers, mapped per {!data_config.dag_comm_aware} and
          executed through {!Taskgraph.Exec} *)

val kind_name : kind -> string
(** ["bfs"], ["pagerank"], ["gups:N"], ["tpch:Q"], ["ycsb:N"],
    ["dag:SHAPE:LAYERS"]. *)

val kind_of_string : string -> kind option
(** Inverse of {!kind_name}; also accepts the bare ["pr"], ["gups"],
    ["tpch"], ["ycsb"], ["dag"] with default sizes and ["dag:SHAPE"]
    with the default layer count. *)

val pick_kind : Engine.Rng.t -> (kind * int) list -> kind
(** One weighted draw from a [(kind, weight)] mix: a single
    [Rng.int rng total_weight] walked over the cumulative weights.  The
    server's and the fleet's arrival streams both draw through it.
    Weights must be positive and the mix non-empty. *)

type data_config = {
  graph_scale : int;  (** log2 vertices of the shared Kronecker graph *)
  dag_comm_aware : bool;
      (** map task-DAG jobs with the communication-aware mapper (default)
          instead of the blind round-robin baseline *)
  seed : int;  (** dataset-generation seed *)
}

val default_data_config : data_config
(** A scale-10 graph.  The other datasets have fixed sizes: edge factor
    8, SF 0.002 TPC-H, a 4 Ki-record YCSB table, a 16 Ki-word GUPS table
    and two PageRank iterations per job. *)

type data

val prepare : ?share:data -> Workloads.Exec_env.t -> data_config -> kind list -> data
(** Allocate and populate the shared datasets the listed kinds use (the
    graph for BFS and PageRank, the column store for TPC-H, the table for
    YCSB) through the environment's shared allocator, so placement policy
    applies to serving data too.  A dataset no kind uses is not built,
    but its simulated regions are still reserved, in the same order and
    sizes: every region lands at the same address whichever kinds are
    listed.

    With [share] (another session's data, prepared with an equal config
    on another machine), the graph and the TPC-H columns reuse its
    immutable host arrays over regions of their own; the mutable YCSB
    table is always built afresh. *)

val csr : data -> Workloads.Csr.t option
(** The built graph; [None] when no listed kind uses it. *)

val tpch : data -> Olap.Tpch_data.t option
(** The built TPC-H tables; [None] when no listed kind uses them. *)

val cost_estimate : data -> kind -> float
(** Rough service demand (arbitrary units, consistent across kinds) used
    as the weighted-fair-queue cost and for SLO scaling; a pure function
    of the prepared datasets.  A [Dag] kind's estimate generates its
    seed-0 graph, so callers pricing many jobs price each kind once.
    @raise Invalid_argument if the kind's dataset was not built. *)

val run : Engine.Sched.ctx -> data -> seed:int -> kind -> int
(** Execute one job inside the calling task; nested parallelism fans out
    over the machine via the scheduler.  [seed] individualises the job
    (BFS source, GUPS/YCSB key streams).  Returns the work items done
    (edges, updates, rows, transactions).
    @raise Invalid_argument on [Tpch q] with [q] outside [1..22] or
    non-positive batch sizes, and on a kind whose dataset was not
    built. *)

val run_replica : Engine.Sched.ctx -> data -> seed:int -> replica:int -> kind -> int
(** {!run} for the [replica]-th member of a replica group (0 = primary).
    Identical to {!run} for every kind except [Dag], where the replica
    ordinal rotates the usable-chiplet preference so redundant DAG
    executions map their nodes onto different silicon. *)

val worker_chiplets : data -> Engine.Sched.ctx -> int array option
(** Chiplets that currently host a scheduler worker ([None] if none was
    found, leaving the caller its default).  DAG mapping and replica
    placement restrict themselves to these.  The array is cached until
    the scheduler's {!Engine.Sched.placement_epoch} moves; callers must
    not modify it. *)
