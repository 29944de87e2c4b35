(** Word-granularity diffs.

    A diff records the words of a page that changed relative to its twin:
    their positions as a bitmap with one bit per word of the changed span
    (in whole bytes, from the first changed word to the last), and their
    new values as a flat float array in increasing position order.
    Applying a diff overwrites exactly those words, which is what lets
    multiple concurrent writers of disjoint words on the same page merge
    correctly. *)

type t

(** [create ~page ~twin ~current] computes the diff between [twin] (the clean
    copy) and [current] (the dirty copy). Float comparison is bit-wise so
    that a write of the same value is (correctly) not treated as a change,
    matching memcmp-based diffing. Both must have equal length. *)
val create : page:int -> twin:Words.t -> current:Words.t -> t

(** [of_entry ~check e] is the diff of [e]'s local copy against its twin:
    every diff a protocol takes is built here. While [e]'s written-word log
    holds, it sorts and deduplicates the log in place and compares only the
    logged words; a saturated log falls back to {!create}'s full scan. The
    result is {!create}'s either way, provided the copy changed since the
    twin was made only through logged stores, or by changes applied to the
    twin as well. With [~check:true] (under [Config.paranoid]) a logged
    diff is compared with the full scan's.
    @raise Invalid_argument if [e] has no twin or no local copy.
    @raise Failure if [~check] finds the two diffs differ. *)
val of_entry : check:bool -> Page_table.entry -> t

(** [apply t data] writes the diff's words into [data]. *)
val apply : t -> Words.t -> unit

(** The page the diff was taken of. *)
val page : t -> int

val is_empty : t -> bool

val word_count : t -> int

(** Simulated on-the-wire and retained size: a 16-byte header plus 12
    bytes (a 4-byte offset and the 8-byte word) per changed word, matching
    the paper's run-length encoded diffs. It does not depend on the host
    representation. *)
val size_bytes : t -> int

(** [iter f t] calls [f offset value] for each entry in offset order. *)
val iter : (int -> float -> unit) -> t -> unit
