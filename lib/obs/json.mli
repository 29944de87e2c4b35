(** Minimal JSON values: the machine-readable contract of the observability
    layer (reports and trace exports).

    The printer is deterministic — object fields print in the order given,
    floats use the shortest decimal representation that round-trips exactly
    — so two identical simulations serialize to byte-identical documents,
    which is what lets the identity golden pin reports by digest. The
    parser accepts standard JSON (objects, arrays, strings, numbers,
    booleans, null) and is used by the tests that read reports and exports
    back; no external JSON library is required. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [write ?pretty w v] serializes [v] through [w], a piece at a time, so
    a file is written without first building the whole document as a
    string. Compact (one line) by default; [~pretty:true] indents two
    spaces per level, one element per line, and ends with a newline. *)
val write : ?pretty:bool -> (string -> unit) -> t -> unit

(** The compact serialization, as a string. *)
val to_string : t -> string

(** Shortest decimal form of [f] that parses back to exactly [f]
    (non-finite floats serialize as [null], as JSON has no lexeme for
    them). Exposed for the metrics CSV. *)
val float_string : float -> string

(** Parse a complete JSON document (trailing whitespace allowed).
    Returns [Error msg] with a position on malformed input. *)
val of_string : string -> (t, string) result

(** {1 Accessors} (for {!Schema}'s rules and tests) *)

(** Field of an object, [None] on missing field or non-object. *)
val member : string -> t -> t option

(** [Int] or integral [Float] as int. *)
val to_int : t -> int option

(** Any number as float. *)
val to_float : t -> float option

val to_list : t -> t list option
