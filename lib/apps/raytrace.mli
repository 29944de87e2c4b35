(** Raytrace: a sphere-scene renderer with distributed task queues and task
    stealing (Splash-2 "Raytrace", simplified shading, same sharing
    structure: read-only scene, image tiles as tasks in per-processor
    queues under locks, fine-grained false-shared pixel writes — the
    paper's hardest case for SVM). *)

type params = {
  width : int;
  height : int;
  tile : int;  (** Tile side; must divide [width] and [height]. *)
  spheres : int;
  flop_us : float;
  seed : int;
}

val default : params

val name : string

type sphere = { cx : float; cy : float; cz : float; r : float; albedo : float }

(** Sequential reference image, row-major. *)
val reference : params -> float array

val body : ?verify:bool -> params -> Svm.Api.ctx -> unit
