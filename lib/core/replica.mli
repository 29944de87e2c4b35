(** Deterministic failover of replicated homes after a node kill.

    Invoked once per kill by the failure detector ({!Runtime} schedules it
    at the kill time plus {!Machine.Chaos.params.detect_delay}). For every
    page homed at the dead node with a replica set ([Config.replicas] > 1),
    the next live node in rank order becomes primary and rebuilds the
    master copy — from its warm copy plus pulled retained diffs under the
    primary-backup scheme, or from zeros plus the causally-ordered union of
    the dead primary's archived payload diffs and every live writer's
    retained diffs under the invalidation scheme. In-flight fetches of
    every live process are then re-issued against a bumped fetch
    generation, so stale replies discard themselves and the retry routes to
    the post-failover home (homeless protocols only need this step; their
    dead-node recovery lives on the fetch path in [Faults]).

    Recovery traffic is charged to the timing model and counted in the
    replication counters; each promotion increments the new primary's
    [failovers] counter and emits {!Obs.Trace.Failover}. *)

(** [failover sys ~dead ~at] runs the failure detector's response to the
    crash of [dead], at detection time [at]. *)
val failover : System.t -> dead:int -> at:float -> unit

(** {1 Heartbeat detector}

    With [--detector heartbeat], {!Runtime} wires the transport's heartbeat
    observations ({!Machine.Transport.start_heartbeats}) to these two
    hooks, which keep the suspicion matrix [System.suspects].
    A suspicion is one node's local view; only a strict global majority of
    current members deposes a node and triggers {!failover} — so a single
    paused node (which suspects everyone it can no longer hear) or a
    minority partition can never remove the other side. A deposed node may
    be alive: when it is heard from again and the quorum collapses, it
    rejoins — stale home authority discarded (remote fetches still parked
    there are fenced; its own parked waits convert to remote fetches
    against the current home), local copies of re-homed pages invalidated,
    and {!Obs.Trace.Rejoin} emitted. *)

(** [by] has not heard [peer] for longer than the suspicion timeout. A
    no-op if [by] already suspects [peer]. *)
val suspect : System.t -> by:int -> peer:int -> at:float -> unit

(** [by] heard [peer]: if [by] suspected it, the suspicion was false. A
    no-op otherwise. *)
val refute : System.t -> by:int -> peer:int -> at:float -> unit
