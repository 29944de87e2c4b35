(** Described JSON objects.

    An object is described once, as a list of entries; {!encode} and
    {!validate} are two walks over that list, so what the encoder writes
    and what the validator accepts cannot drift apart. An entry is a
    field (a name, a {!ty} and a projection from the encoded value), a
    group of fields under one presence rule, or an invariant of the
    object:

    - a plain {!field} is always present;
    - a {!given} or {!some} group is present when a predicate on the
      encoded value holds; {!validate} accepts the group absent and
      rejects it partly present;
    - an {!iff} group is present exactly when a predicate on the sibling
      fields before it holds; the encoder and the validator evaluate the
      same predicate;
    - a {!rule} is checked by {!validate} only.

    The encoder writes fields in list order. The validator also rejects a
    key that the description does not name. *)

(** How one value encodes, and the check of its encoding. *)
type 'a ty

val int : int ty

(** An integer of at least the bound. *)
val at_least : int -> int ty

(** A float; an integer also checks. *)
val num : float ty

val str : string ty

val bool : bool ty

(** A string among [values]. *)
val enum : string list -> string ty

val list : 'a ty -> 'a list ty

(** [refine ty bad] narrows [ty]: [bad] says what is wrong with a
    well-typed value, or [None]. *)
val refine : 'a ty -> (Json.t -> string option) -> 'a ty

(** An object keyed by data rather than by the description. *)
val map : 'a ty -> (string * 'a) list ty

type 'a entry

type 'a t = 'a entry list

(** A described object as a value. *)
val obj : 'a t -> 'a ty

(** [field name ty get] encodes [get v] under [name]. *)
val field : string -> 'b ty -> ('a -> 'b) -> 'a entry

(** An integer field that always holds [n]. *)
val const : string -> int -> 'a entry

(** [given p fields]: [fields] appear, all of them, when [p v] holds.
    The group holds plain fields only. *)
val given : ('a -> bool) -> 'a entry list -> 'a entry

(** [some project fields]: [fields] encode from [b] when [project v] is
    [Some b]; otherwise the group is absent. *)
val some : ('a -> 'b option) -> 'b entry list -> 'a entry

(** [iff q fields]: [fields] appear exactly when [q] holds on the object
    holding the fields before them. *)
val iff : (Json.t -> bool) -> 'a entry list -> 'a entry

(** [opt name ty project]: a one-field {!some} group, [name] encoding [b]
    when [project v] is [Some b]. *)
val opt : string -> 'b ty -> ('a -> 'b option) -> 'a entry

(** An invariant of the object: [Some msg] describes a violation. *)
val rule : (Json.t -> string option) -> 'a entry

(** The integer under [name] of an object, for predicates and rules. *)
val int_at : string -> Json.t -> int option

(** [positive name o]: the integer under [name] is above 0. *)
val positive : string -> Json.t -> bool

(** The list under [name] of an object; [[]] if there is none. *)
val list_at : string -> Json.t -> Json.t list

val encode : 'a t -> 'a -> Json.t

(** Check a document against the description; the error names the first
    violation by its path below [path]. *)
val validate : 'a t -> path:string -> Json.t -> (unit, string) result
