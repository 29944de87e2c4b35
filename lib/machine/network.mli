(** 2-D wormhole-routed mesh network cost model.

    Nodes are laid out row-major on a [width x height] mesh, the smallest
    near-square mesh holding [nprocs] nodes (the Paragon arrangement). A
    message costs one software latency, a tiny per-hop wire term and a
    per-byte payload term; wormhole routing makes the hop term nearly
    negligible, matching the paper's flat latency numbers. *)

(** Private so that [Svm.System.send] can read a link's fixed cost and
    [costs.byte_transfer] as fields: under the dev profile's [-opaque], a
    call here returns a boxed float per message. *)
type t = private {
  costs : Costs.t;
  width : int;
  nprocs : int;
  link : float array;
      (** Indexed by [src * nprocs + dst]: [message_latency +. hops *.
          per_hop], computed once at {!create}; [0.] on the diagonal. *)
}

val create : costs:Costs.t -> nprocs:int -> t

(** Manhattan distance between two nodes on the mesh. *)
val hops : t -> src:int -> dst:int -> int

(** [transfer_time t ~src ~dst ~bytes] is the one-way delivery time of a
    message with [bytes] of payload between nodes in [0 .. nprocs - 1]:
    [link.(src * nprocs + dst) +. bytes *. byte_transfer]. [src = dst]
    models a loopback message with zero cost. *)
val transfer_time : t -> src:int -> dst:int -> bytes:int -> float
