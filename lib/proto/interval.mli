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
