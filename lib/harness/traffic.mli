(** Open-loop traffic generation for serving workloads.

    A traffic plan is a deterministic function of its parameters: operation
    [j] of the global stream has a fixed arrival time (open-loop — arrivals
    do not wait for completions), a key drawn from a Zipfian distribution
    over [keys] ranks, and a kind (get / put / two-key transaction) drawn
    from the configured mix. Each operation derives its own RNG from
    [(seed, j)], so a node can materialize just its slice of the stream
    without replaying anybody else's draws — the plan is identical no
    matter how many nodes split it. *)

type params = {
  ops : int;  (** total operations across all nodes *)
  rate : float;  (** aggregate arrival rate, operations per second *)
  keys : int;  (** key-space size; ranks [0 .. keys-1] *)
  theta : float;  (** Zipfian skew in [0, 1); 0 = uniform *)
  write_ratio : float;  (** fraction of single-key ops that are puts *)
  txn_ratio : float;  (** fraction of all ops that are transactions *)
  seed : int;
}

type op =
  | Get of int
  | Put of int
  | Txn of int * int
      (** [Txn (src, dst)] transfers one unit from [src] to [dst];
          [src <> dst] whenever the key space allows it. *)

(** Raises [Invalid_argument] describing the first field out of range. *)
val validate : params -> unit

(** Arrival time of operation [j] in simulated microseconds. *)
val arrival_us : params -> int -> float

(** The operation at global index [j]; deterministic in [(params, j)]. *)
val op_at : params -> Sim.Rng.zipf -> int -> op

(** The plan's Zipfian sampler, built when first forced. Its normalizer
    takes one [**] per key, so the nodes of a run share one. *)
val zipf : params -> Sim.Rng.zipf Lazy.t

(** [iter_node p z ~node ~nodes f] runs [f ~index ~at_us op] over this
    node's round-robin slice of the stream (indices congruent to [node]
    modulo [nodes]) in arrival order, drawing keys from [z] ({!zipf} of
    [p]), which it forces only if the slice is not empty. *)
val iter_node :
  params ->
  Sim.Rng.zipf Lazy.t ->
  node:int ->
  nodes:int ->
  (index:int -> at_us:float -> op -> unit) ->
  unit
