(** Synchronization: distributed locks and the centralized barrier
    (paper §3.5).

    Each lock has a manager ([lock mod nprocs]) tracking the last requester;
    requests are forwarded to that node, which grants the lock when free.
    Grants carry the releaser's knowledge of the intervals the requester has
    not seen; re-acquiring a lock the node still owns is free. Barriers use
    a centralized manager on node 0: arrivals carry each node's new interval
    records, the manager computes the maximal timestamp and selectively
    forwards missing notices with the releases. Barrier completion also
    triggers garbage collection (homeless lazy protocols) and adaptive home
    migration (when enabled). *)

(** Acquire [lock] for the node, suspending its process (continuation [k])
    until the grant arrives; free when the node still holds the token. *)
val acquire :
  System.t -> System.node_state -> int -> (unit, unit) Effect.Deep.continuation -> unit

(** Release [lock]: lazy (the token stays until requested); if a forwarded
    requester is queued, ends the interval and sends the grant.
    @raise Invalid_argument if the lock is not held. *)
val release : System.t -> System.node_state -> int -> unit

(** Enter the global barrier, suspending the node's process until the
    manager's release. *)
val barrier :
  System.t -> System.node_state -> (unit, unit) Effect.Deep.continuation -> unit

(** Failure-detector hook: re-evaluate barrier completion after a node has
    been declared dead. A barrier stalled solely on the victim's arrival
    completes immediately (every live node has arrived); otherwise a no-op.
    Called by [Replica.failover] at detection time. *)
val note_node_death : System.t -> unit
