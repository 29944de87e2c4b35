(** Deterministic splitmix64 random number generator.

    The simulator must be reproducible across runs and independent of the
    global [Random] state, so every stochastic component draws from its own
    [Rng.t] seeded from the experiment configuration. *)

type t

val create : seed:int -> t

(** [split t] derives an independent generator, leaving [t] advanced. *)
val split : t -> t

(** [int t bound] draws uniformly from [0 .. bound-1] by rejection
    sampling (no modulo bias). Raises [Invalid_argument] unless [bound]
    is positive. *)
val int : t -> int -> int

(** [float t bound] draws uniformly from [0, bound). *)
val float : t -> float -> float

(** [bits64 t] draws 64 uniformly random bits. *)
val bits64 : t -> int64

(** {1 Zipfian sampling}

    Constant-time Zipfian rank sampler after Gray et al. (SIGMOD 1994),
    the YCSB workload-generator construction: the harmonic normalizer is
    precomputed once, so each draw costs one uniform variate. *)

type zipf

(** [zipf_create ~n ~theta] prepares a sampler over ranks
    [0 .. n-1] with skew [theta]. Rank 0 is the most popular;
    [theta = 0.] degenerates to the uniform distribution and skew grows
    with [theta]. Raises [Invalid_argument] unless [n >= 1] and
    [theta] is in [\[0, 1)]. *)
val zipf_create : n:int -> theta:float -> zipf

(** [zipf t z] draws a rank in [0 .. n-1], consuming one variate of [t]. *)
val zipf : t -> zipf -> int
