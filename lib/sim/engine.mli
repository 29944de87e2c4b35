(** Sequential discrete-event simulation engine.

    Events are thunks scheduled at absolute simulated times (microseconds in
    this project, though the engine itself is unit-agnostic). Events with
    equal timestamps fire in scheduling order, which makes runs fully
    deterministic. Scheduling and executing an event allocate nothing, and
    an executed thunk is no longer reachable from the engine. *)

type t

(** [create ?capacity ()] sizes the event set for [capacity] concurrently
    pending events (default 16) when the caller can predict it; it grows
    past that. *)
val create : ?capacity:int -> unit -> t

(** Current simulated time: the timestamp of the event being executed, or the
    last executed event when idle. Starts at [0.]. *)
val now : t -> float

(** [schedule t ~at f] enqueues [f] to run at absolute time [at]. Scheduling
    in the past (before [now t]) or at NaN is a programming error and raises
    [Invalid_argument]; a small tolerance absorbs float rounding. *)
val schedule : t -> at:float -> (unit -> unit) -> unit

(** [run t] executes events in timestamp order until the queue drains.
    Returns the final simulated time. *)
val run : t -> float

(** [step t] executes the single earliest event. Returns [false] when the
    queue is empty. *)
val step : t -> bool

val pending : t -> int

(** Number of events executed so far. *)
val executed : t -> int
