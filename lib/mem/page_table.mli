(** Per-node simulated page table.

    Every node has its own table. An entry tracks the node's local copy of
    the page (if any), its software protection state, the twin used for diff
    creation with the log of words written since it was made, and whether
    the page was written during the current interval.

    [Svm.Api]'s access fast path reads an entry's [data] on its [prot]
    alone, so the table keeps one invariant: an entry whose [prot] is not
    [No_access] holds a frame of [page_words] words. Every write of [prot]
    goes through {!protect} (or {!open_copy}, {!materialize},
    {!invalidate} and {!drop_copy}, which call it), and it refuses access
    to an entry without a copy. *)

type protection = No_access | Read_only | Read_write

type entry = {
  page : int;
  mutable data : Words.t;  (** Local copy; {!no_copy} = not cached. *)
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

(** Private so that [Svm.Api]'s access fast path can read [npages] and
    [entries] as fields: under the dev profile's [-opaque], a call here
    would be a real call per simulated load and store. *)
type t = private {
  layout : Layout.t;
  mutable entries : entry array;
      (** Indexed by page: at least [npages] slots, {!no_entry} for a page
          never touched. *)
  mutable npages : int;  (** Highest touched page + 1. *)
}

(** The shared empty frame (length 0): the [data] of every entry without
    a copy. Nothing writes it, and nothing may read it with
    [Words.unsafe_get]. *)
val no_copy : Words.t

(** The shared sentinel entry ([page] -1, [No_access], {!no_copy}, no
    twin, no mirror, a saturated empty log) in every slot of [entries]
    for a page never touched. Nothing writes it: {!ensure} replaces it in
    its slot before anything is written. *)
val no_entry : entry

(** [has_copy e] is whether [e] holds a local copy, a frame of
    [page_words] words. *)
val has_copy : entry -> bool

val create : Layout.t -> t

(** [ensure t page] returns the entry for [page], creating an uncached,
    inaccessible one if needed. *)
val ensure : t -> int -> entry

(** [find t page] is the entry if the page was ever touched, else
    {!no_entry}, without creating or growing anything (for read-only
    inspection). *)
val find : t -> int -> entry

(** [entry t page] like {!ensure} but raises [Invalid_argument] if the page
    was never touched on this node. *)
val entry : t -> int -> entry

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

(** [protect e prot] sets [e]'s protection.
    @raise Invalid_argument if [prot] grants access and [e] has no copy. *)
val protect : entry -> protection -> unit

(** Open a validated copy: read-write if the page was written during the
    current interval, else read-only. *)
val open_copy : entry -> unit

(** Close an accessible copy ([No_access]); the data stays. Returns
    whether the entry changed, so the caller can charge the
    invalidation. *)
val invalidate : entry -> bool

(** Close [e] and drop its copy, which is not recycled. *)
val drop_copy : entry -> unit

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
