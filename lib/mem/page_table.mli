(** Per-node simulated page table.

    Every node has its own table. An entry tracks the node's local copy of
    the page (if any), its software protection state, the twin used for diff
    creation with the log of words written since it was made, and whether
    the page was written during the current interval. *)

type protection = No_access | Read_only | Read_write

type entry = {
  page : int;
  mutable data : Words.t option;  (** Local copy; [None] = not cached. *)
  mutable prot : protection;
  mutable twin : Words.t option;
  mutable dirty : bool;  (** Written during the current interval. *)
  mutable mirror : Words.t option;
      (** Write-through target: stores to this page are replicated into this
          array as they happen (the automatic-update hardware of AURC). *)
  mutable mirror_pending : int;
      (** Words written through since the last flush accounting. *)
  mutable log : int array;
      (** Written-word log: the offsets stored to since {!make_twin}, in
          slots [log_free] to the end. [Svm.Api.write] appends a store's
          offset at slot [log_free - 1] and decrements [log_free], unless
          it is 0; nothing else appends. Read by {!Diff.of_entry}. *)
  mutable log_free : int;
      (** Slots of [log] still free. 0 = saturated: the store that filled
          the last slot saturates the log, since it can then no longer
          tell whether a later store was left out, and the page counts as
          dense. An entry without a twin is saturated. *)
}

type t

val create : Layout.t -> t

(** Highest allocated page id + 1. *)
val npages : t -> int

(** [ensure t page] returns the entry for [page], creating an uncached,
    inaccessible one if needed. *)
val ensure : t -> int -> entry

(** [find t page] is the entry if the page was ever touched, without
    creating or growing anything (safe for read-only inspection). *)
val find : t -> int -> entry option

(** [entry t page] like {!ensure} but raises [Invalid_argument] if the page
    was never touched on this node. *)
val entry : t -> int -> entry

(** All entries with a local copy. *)
val cached_pages : t -> entry list

(** [data_exn e] returns the local copy of [e].
    @raise Invalid_argument if the page is not cached. *)
val data_exn : entry -> Words.t

(** Allocate and attach a zero-filled local copy. *)
val attach_copy : t -> entry -> Words.t

(** [materialize t e] is [e]'s local copy. On first touch it attaches a
    zero-filled copy (shared memory starts zeroed) and makes it read-only:
    how a home's master copy, or the copy a homeless keeper serves, comes
    into being. *)
val materialize : t -> entry -> Words.t

(** Open a validated copy: read-write if the page was written during the
    current interval, else read-only. *)
val open_copy : entry -> unit

(** Close a cached, accessible copy ([No_access]); the data stays. Returns
    whether the entry changed, so the caller can charge the
    invalidation. *)
val invalidate : entry -> bool

(** Make a twin (clean copy) of the current data, and empty the log. The
    log has 16 slots. *)
val make_twin : entry -> unit

(** Make a twin of the current data and keep the log: for a written copy
    replaced by a received one with the uncommitted writes re-applied,
    which the log already names. *)
val retwin : entry -> unit

(** Drop the twin, and saturate the log. *)
val drop_twin : entry -> unit

(** [compact_log e] sorts the offsets in [e]'s log and drops repeats, in
    place, and returns the first live slot: the log's distinct offsets are
    [e.log.(i)] for [i] from that slot to the end, ascending. Only for a
    log that holds ([log_free > 0]). *)
val compact_log : entry -> int

val iter : t -> (entry -> unit) -> unit
