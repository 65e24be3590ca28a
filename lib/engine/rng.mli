(** Deterministic splittable PRNG (splitmix64).

    Every simulated component owns its own stream so experiment results are
    reproducible regardless of scheduling order.

    The state is held unboxed, so [int] and [bool] draws allocate nothing;
    [float] and [next] allocate at most their boxed result. *)

type t

val create : int -> t
(** Seeded generator; equal seeds give equal streams. *)

val split : t -> t
(** Derive an independent stream (e.g., one per worker). *)

val next : t -> int64
val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** Uniform in [\[0, bound)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val zipf : t -> n:int -> theta:float -> int
(** Zipfian draw in [\[0, n)] with skew [theta] (0 = uniform; YCSB's
    default is 0.99), via the Gray et al. rejection-free approximation.
    @raise Invalid_argument if [n <= 0] or [theta < 0.0 || theta >= 1.0]. *)
