(** Resource-aware replicated execution: deterministic result tokens,
    corruption, and voting.

    Critical tenants run each job [k] times on distinct chiplets (see
    {!Server}; the fleet router co-schedules whole groups).  Every
    replica derives a {!token} — a pure function of the job's seed and
    kind, so replicas agree by construction — then a [corruption] fault
    ({!Chipsim.Modifiers.take_corruption}) may flip one bit of one
    replica's token, and {!vote} masks the poisoned minority.  The token
    is deliberately {e not} derived from the job's computed values:
    replicas share the mutable job scratch (BFS levels, PageRank ranks),
    so value-derived tokens would diverge spuriously under interleaving.

    Placement spreads each group over distinct worker-hosting chiplets in
    the spirit of resource-aware replication on heterogeneous multicores:
    replicas land on different silicon, so a per-chiplet fault (or a
    power-capped hot chiplet) degrades at most one vote. *)

val token : job_seed:int -> kind:string -> int64
(** Deterministic result token (splitmix64 over seed and kind name). *)

val corrupt : int64 -> seed:int -> int64
(** Seeded single-bit flip — the injected silent-data-corruption model. *)

val vote : int64 array -> int64
(** Plurality winner with a deterministic tie-break (lowest replica index
    first).  Under the planted bug [--plant vote-skip]
    ({!Chipsim.Invariant.Plant.Vote_skip}) it returns replica 0's token
    unchecked — the defect the replica-agreement invariant and the fuzzer
    gate must catch.
    @raise Invalid_argument on an empty group. *)

val majority : int64 array -> int64
(** The honest plurality computation, never subject to the plant —
    checkers recompute it to audit {!vote}.
    @raise Invalid_argument on an empty group. *)

val unanimous : int64 array -> bool
(** All tokens equal — must hold absent injected corruption. *)

val placement : chiplets:int array -> job_id:int -> replicas:int -> int array
(** Distinct chiplets for one group, rotated by [job_id] so successive
    groups spread over the machine.  Clamped to [length chiplets]: a
    machine with fewer worker-hosting chiplets than requested replicas
    cannot give more genuinely independent placements.
    @raise Invalid_argument on an empty chiplet set or [replicas < 1]. *)

val worker_on : Engine.Sched.t -> Chipsim.Topology.t -> chiplet:int -> int option
(** First scheduler worker hosted on the chiplet — the pin target. *)
