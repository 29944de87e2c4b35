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

(** [apply ?obs t data] writes the diff's words into [data]. When [obs] is
    given, a typed {!Obs.Trace.Diff_apply} event (page, changed words, wire
    bytes) is emitted through it — the structured-observability hook the
    simulator's runtime threads down here so every observed diff
    application is attributed to the node whose copy it mutates. *)
val apply : ?obs:(Obs.Trace.kind -> unit) -> t -> Words.t -> unit

(** The {!Obs.Trace.Diff_create} event describing this diff, for callers
    that observe diff construction. *)
val created_event : t -> Obs.Trace.kind

val is_empty : t -> bool

val word_count : t -> int

(** Simulated on-the-wire and retained size: a 16-byte header plus 12
    bytes (a 4-byte offset and the 8-byte word) per changed word, matching
    the paper's run-length encoded diffs. It does not depend on the host
    representation. *)
val size_bytes : t -> int

(** [merge older newer] produces a diff equivalent to applying [older] then
    [newer]. Both must be diffs of the same page. *)
val merge : t -> t -> t

(** [iter f t] calls [f offset value] for each entry in offset order. *)
val iter : (int -> float -> unit) -> t -> unit

val pp : Format.formatter -> t -> unit
