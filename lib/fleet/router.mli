(** Cluster-level job placement: pick a shard for each arriving job.

    The router is deterministic state over deterministic inputs — a
    round-robin cursor and a tenant→last-shard affinity table — so a
    fleet run is a pure function of its seed, like everything below it.

    Every policy refuses fully-offline shards (capacity 0); the policies
    differ in what {e else} they can see:

    - {!Round_robin}: nothing — cyclic placement over online shards.
    - {!Least_loaded}: shard load (backlog + queued service demand), but
      chiplet-blind: a machine limping at 40% capacity with two sick
      chiplets looks identical to a healthy one at equal queue depth.
    - {!Ewma}: an exponentially-weighted moving average of each shard's
      observed end-to-end job latencies (fed by {!observe}), scaled by
      queue depth — a black-box policy that learns which shards are slow
      from completions alone, without seeing why.
    - {!Charm_aware}: load {e divided by effective capacity}, where
      effective capacity folds in {!Chipsim.Modifiers.online_capacity}
      and the shard's sick-chiplet fraction (from
      {!Core.Health_monitor} under CHARM, OS-visible impairment for
      baselines), plus a mild tenant-affinity bonus for cache locality —
      the paper's heterogeneity-awareness lifted to the cluster. *)

type policy = Round_robin | Least_loaded | Ewma | Charm_aware

val policy_name : policy -> string
(** ["round-robin"], ["least-loaded"], ["ewma"], ["charm"]. *)

val all_policies : policy list

(** Per-shard routing snapshot, refreshed at each epoch boundary and
    updated in place by {!choose} as jobs are placed within an epoch. *)
type view = {
  shard : int;
  mutable capacity : float;  (** {!Chipsim.Modifiers.online_capacity}, 0 = offline *)
  mutable sick_fraction : float;  (** sick chiplets / chiplets, [0, 1] *)
  mutable load_ns : float;
      (** backlog past the epoch start plus queued service demand, ns *)
  mutable depth : int;  (** queued jobs *)
}

type t

val create : policy -> t
val policy : t -> policy

val observe : t -> shard:int -> service_ns:float -> unit
(** Feed one completed job's observed end-to-end latency (submit to
    finish, ns) into the shard's EWMA.  Cheap and policy-independent:
    only {!Ewma} scoring reads the average.  Negative samples are
    ignored. *)

val observed_latency : t -> shard:int -> float
(** The shard's current EWMA (0 until first observation). *)

val effective_capacity : view -> float
(** [max 0.05 (capacity * (1 - 0.75 * sick_fraction))] — the denominator
    of the CHARM-aware score. *)

val choose :
  t -> ?exclude:int -> tenant:string -> cost:float -> view array -> int option
(** Pick a shard for one job of estimated service demand [cost] (ns).
    [exclude] (a shard id, for relocations) is never chosen.  Returns
    [None] when no eligible shard exists (all offline — the caller sheds
    at the router).  On success the chosen view's [load_ns]/[depth] are
    bumped by the job's demand and the affinity/cursor state advances. *)
