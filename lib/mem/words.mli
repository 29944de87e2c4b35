(** Page word storage: a flat [float64] Bigarray.

    Page data, twins and mirrors used to be [float array]; the Bigarray
    representation keeps the same unboxed flat layout but lets the hot
    access paths ([Svm.Api.read]/[write], {!Diff.create}) compile to direct
    loads and stores with no per-word boxing, and its contents are ignored
    by the OCaml GC (no scan cost for hundreds of megabytes of simulated
    memory at Full scale).

    [get]/[set] are bounds-checked; the [unsafe_] variants are not and are
    reserved for loops whose index range is already validated against
    {!length}.

    A Bigarray that survives a minor collection adds its size to the major
    GC's pacing ([caml_alloc_custom_mem]), however little else is promoted.
    The page copies a home-based fetch installs live until the page is
    next invalidated, so a fresh one per fetch drove most of a serving
    run's major collections; they are recycled through a {!free_list}.
    Twins are not. A sparse writer's twins die young, and a dense writer's
    (SOR keeps its twins for a whole iteration) are what paces the major
    GC that reclaims LRC's retained diffs: recycling them saved nothing on
    the kvstore and raised SOR's peak RSS by 18%. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Zero-filled. *)
val make : int -> t

external length : t -> int = "%caml_ba_dim_1"

external get : t -> int -> float = "%caml_ba_ref_1"

external set : t -> int -> float -> unit = "%caml_ba_set_1"

external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"

external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"

(** [blit ~src ~dst] copies [src] into [dst]; lengths must match. *)
val blit : src:t -> dst:t -> unit

val copy : t -> t

val of_array : float array -> t

val to_array : t -> float array

val iter : (float -> unit) -> t -> unit

val iteri : (int -> float -> unit) -> t -> unit

(** {1 Recycled frames} *)

(** A LIFO list of free equal-length frames. One per simulated run: frames
    move between nodes (a home takes one, the reader that installs it
    releases the one it replaces), so per-node lists would drift. *)
type free_list

(** An empty list. With [~poison:true], every released frame is filled with
    NaN first, so a read through a stale alias shows up as a wrong value,
    and releasing a frame that is already free raises [Invalid_argument]. *)
val free_list : poison:bool -> free_list

(** [take fl src] is a copy of [src] in the most recently released frame of
    [fl], or in a fresh one when [fl] is empty. *)
val take : free_list -> t -> t

(** [release fl frame] puts [frame] on [fl]. The caller must hold the only
    reference to it. *)
val release : free_list -> t -> unit
