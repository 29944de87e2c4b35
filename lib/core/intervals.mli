(** Interval termination and write-notice application.

    An interval is the span of a processor's execution between consecutive
    synchronization events (paper §2.1); it ends when the node performs a
    remote acquire, receives a remote lock request, or enters a barrier.
    What happens to the writes of a finished interval is the defining
    difference between the protocols:

    - homeless (LRC/OLRC): a diff per dirty page is created and retained at
      the writer until garbage collection;
    - home-based (HLRC/OHLRC): diffs are flushed to each page's home and
      discarded immediately;
    - AURC: the data already went out by write-through; only a release
      timestamp travels;
    - eager RC: diffs are pushed to every copyset member and the next
      handoff waits for their acknowledgements. *)

(** AURC: words the network interface combines into one automatic-update
    message (the SHRIMP combining buffer): 32. *)
val au_combine_words : int

(** A diff flushed by [writer] (interval [index]) arrives at the home at
    [arrival]: apply it to the master copy, raise the per-writer flush
    level, propagate to the page's backups, and serve any fetch the new
    level enables. Idempotent on replicated runs (a diff at or below the
    flush level is skipped); during a failover recovery of [page] the
    flush is stashed for replay instead (see [Replica]). *)
val deliver_flush :
  System.t ->
  System.node_state ->
  arrival:float ->
  writer:int ->
  index:int ->
  page:int ->
  Mem.Diff.t ->
  unit

(** End the node's current interval, if it wrote anything: commit its dirty
    pages per the configured protocol (see above), write-protect them and
    advance the node's vector time. *)
val end_interval : System.t -> System.node_state -> unit

(** Apply a batch of remote interval records (write notices) received on a
    lock grant or barrier release: record them, advance the receiver's
    vector time, invalidate affected cached pages (homeless protocols also
    queue the notices for fault-time diff collection; home-based ones raise
    the per-page required-flush level). Records are applied creator by
    creator in ascending order, oldest first within a creator; the
    receiver's own records are skipped, as is every record at or below its
    vector time. For each creator with news the receiver then adopts the
    batch's chain as its list, consing nothing. Returns the receiver's
    own-homed pages whose required flush level is not yet reached — the
    caller must delay the process until those in-flight updates land. *)
val apply_remote_intervals :
  System.t -> System.node_state -> Proto.Interval.batch -> int list

(** The records the receiver (whose cut is [their_vt]) has not seen yet,
    as a batch of this node's own lists; it copies no record, and its cost
    is one step per creator. *)
val missing_intervals : System.node_state -> Proto.Vclock.t -> Proto.Interval.batch
