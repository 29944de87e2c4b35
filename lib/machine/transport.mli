(** Reliable, FIFO message transport over a faulty network.

    Sits between a message-passing layer and {!Chaos}: every payload sent on
    a directed link gets a per-link sequence number; the receiver
    deduplicates, holds out-of-order arrivals in a reorder buffer, and
    delivers strictly in sequence order — restoring the FIFO contract the
    SVM protocols assume — while acknowledging cumulatively. The sender
    retransmits unacknowledged packets on a timer with exponential backoff,
    up to a retry cap, after which it gives up and records the loss (a
    no-progress watchdog turns that into a diagnostic failure; the transport
    itself never raises, because a dropped-forever message after all nodes
    finished is benign).

    Costs are charged to the simulated timing model: every copy (original,
    duplicate or retransmission) pays the normal {!Network.transfer_time}
    plus [seq_bytes] of header, acks pay [ack_bytes], and the chaos verdict's
    jitter adds to each copy's latency. The transport itself holds no
    statistics; it reports everything observable through the [notify]
    callback so the caller can do the accounting and tracing. *)

(** Observable transport actions, reported through [notify] as they happen.
    Directions: [src]/[dst] are always payload-sender / payload-receiver,
    even for acks (which travel dst -> src). *)
type notice =
  | Dropped of { src : int; dst : int; seq : int; bytes : int; ack : bool }
      (** The network lost a copy ([ack] distinguishes lost acks). *)
  | Retransmit of { src : int; dst : int; seq : int; retries : int; bytes : int; rto : float }
      (** Sender timeout: one more copy on the wire. *)
  | Dup_dropped of { src : int; dst : int; seq : int }
      (** Receiver discarded an already-delivered sequence number. *)
  | Ack_sent of { src : int; dst : int; upto : int }
      (** Receiver acknowledged everything up to [upto] inclusive, plus
          (selectively) the copy that triggered the ack, which may sit in
          the reorder buffer above a gap. *)
  | Gave_up of { src : int; dst : int; seq : int; retries : int }
      (** Retry cap hit; the packet will never be delivered. *)
  | Peer_dead of { src : int; dst : int; seq : int; bytes : int }
      (** The packet was abandoned because one endpoint crash-stopped:
          either cancelled in flight by {!kill_peer}, refused at
          {!send} ([seq = -1], never transmitted), or its copy arrived
          at a dead receiver. No retransmission will follow. *)

type t

(** Wire overhead of the sequence/ack header added to every payload copy. *)
val seq_bytes : int

(** Size of a standalone cumulative acknowledgement message. *)
val ack_bytes : int

(** [alive n] is the caller's record of whether node [n] has crash-stopped;
    the transport reads it wherever a dead endpoint matters and keeps no
    copy. *)
val create :
  engine:Sim.Engine.t ->
  net:Network.t ->
  chaos:Chaos.t ->
  alive:(int -> bool) ->
  ?max_retries:int ->
  notify:(time:float -> notice -> unit) ->
  unit ->
  t

(** [send t ~src ~dst ~at ~bytes handler] hands one payload to the
    transport at time [at]. [handler] runs exactly once, at the payload's
    in-order delivery time, or never if the retry cap is hit. Loopback
    ([src = dst]) is not supported here; callers short-circuit it. *)
val send : t -> src:int -> dst:int -> at:float -> bytes:int -> (float -> unit) -> unit

(** [kill_peer t ~peer ~time] abandons every packet in flight on a link
    touching [peer], which [alive] must already report dead: each is
    cancelled (its backoff timer finds nothing in flight — no
    retransmission storm at the retry cap) and reported as {!Peer_dead};
    later sends to or from the peer are refused up front the same way.
    Nodes inside a {!Chaos.fault.Pause} window (and links cut by a
    {!Chaos.fault.Partition}) are handled without this call: their copies
    are treated as network drops and heal by retransmission once the fault
    clears. *)
val kill_peer : t -> peer:int -> time:float -> unit

(** [start_heartbeats t ~nprocs ~interval ~timeout ~active ~on_silent
    ~on_heard] starts the failure-detector plumbing: every node emits an
    unreliable [hb_bytes] ping to every live peer once per [interval]
    (seeded per-node phase offsets desynchronize the ticks), charged to the
    timing model and judged on the same per-link chaos streams as payload
    traffic — no sequence numbers, no retransmission. Each heartbeat heard
    raises [on_heard ~by ~peer], and at each of its own ticks a node audits
    its view: every peer not heard from for more than [timeout]
    microseconds raises [on_silent ~by ~peer], at this audit and each later
    one until it is heard again. Emission stops for crash-stopped nodes
    and, globally, once [active ()] turns false (so the simulation can
    drain). The transport reports observations only: suspicion state and
    what follows from it (quorum, fencing) are the caller's. *)
val start_heartbeats :
  t ->
  nprocs:int ->
  interval:float ->
  timeout:float ->
  active:(unit -> bool) ->
  on_silent:(by:int -> peer:int -> time:float -> unit) ->
  on_heard:(by:int -> peer:int -> time:float -> unit) ->
  unit

(** Packets currently awaiting acknowledgement, across all links. *)
val inflight_count : t -> int

(** Packets abandoned at the retry cap, across all links. *)
val gave_up_count : t -> int

(** Human-readable lines describing unacknowledged and abandoned packets,
    for the watchdog's diagnostic dump. Empty when all is quiet. *)
val describe_pending : t -> string list
