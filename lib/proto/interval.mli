(** Interval records (the carrier of write notices).

    An interval is the span of a processor's execution between two
    consecutive synchronization events. Its record names the pages the
    processor wrote during the span; a "write notice" for page [p] is the
    pair of an interval record and [p]. In homeless protocols the record
    carries the interval's full vector timestamp (needed to causally order
    diffs at fault time); home-based protocols omit it, which is one source
    of their memory and traffic savings (paper §4.6–4.7). *)

type t = {
  node : int;  (** Creating processor. *)
  index : int;  (** Per-processor interval index, from 0. *)
  vt : Vclock.t option;  (** Timestamp; [Some] in homeless protocols. *)
  pages : int list;  (** Pages written during the interval. *)
}

val make : node:int -> index:int -> vt:Vclock.t option -> pages:int list -> t

(** In-memory / on-the-wire footprint: 8-byte header, 4 bytes per page id,
    4 bytes per vector-timestamp entry when present. *)
val size_bytes : t -> int

(** [causally_before a b] holds when [a] is ordered before [b] by their
    vector timestamps; both must carry timestamps.
    @raise Invalid_argument if either lacks a timestamp. *)
val causally_before : t -> t -> bool

(** {1 Write-notice batches}

    A creator's records form one chain, newest first, and every node's list
    for that creator is a physical suffix of it. A batch (a lock grant, a
    barrier arrival or a barrier release) therefore carries no copy: for
    each creator with news, in ascending creator order, it holds the
    sender's chain and the cut at or below which the receiver already has
    every record. The records it carries are the chain's prefix above the
    cut. *)

type batch = Nil | News of { chain : t list; cut : int; rest : batch }

(** [news chain ~cut rest] adds [chain]'s records above [cut] in front of
    [rest], or is [rest] when there are none. *)
val news : t list -> cut:int -> batch -> batch

(** [append a b] carries [a]'s creators, then [b]'s. *)
val append : batch -> batch -> batch

(** Records the batch carries. *)
val batch_length : batch -> int

(** Wire size of the records the batch carries (see {!size_bytes}). *)
val batch_bytes : batch -> int

(** [iter_batch f b] calls [f] on each carried record, creator by creator
    in the batch's order, newest first within a creator. *)
val iter_batch : (t -> unit) -> batch -> unit
