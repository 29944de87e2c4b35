(** Page-fault handling — the SVM access-detection mechanism (a "fault" in
    the virtual-memory sense: a trapped read or write to an invalid page).
    Injected infrastructure failures live in {!Machine.Chaos} and
    {!Machine.Transport}, not here.

    Home-based protocols resolve a miss with one round trip to the page's
    home, whose eagerly-updated master copy is guarded by per-writer flush
    timestamps. Homeless protocols obtain a full copy from the keeper when
    none is cached, then collect the missing diffs from their writers and
    apply them in causal order. Eager RC copies come from an installed
    copyset member and are complete by construction. *)

(** The simulated compute cost of looking up and serving one remote request
    (beyond the interrupt / dispatch cost). *)
val request_service_cost : float

(** The page's write notices not yet reflected in the local copy. *)
val still_missing : System.page_info -> Proto.Interval.t list

(** Collect and apply the diffs for the page's outstanding write notices
    (one request per distinct writer, replies applied in causal order), then
    mark the page valid and run [on_valid]. Also the validation step of the
    garbage collector. *)
val collect_diffs : System.t -> System.node_state -> int -> on_valid:(unit -> unit) -> unit

(** Install a received page copy over the node's, re-applying its
    uncommitted writes, and put the replaced copy on [sys.frames]: the one
    install path for home fetches, homeless full-page fetches and failover
    recovery. *)
val install_copy : System.t -> Mem.Page_table.entry -> Mem.Words.t -> unit

(** One home-based fetch round trip for [page] and the adjacent pages
    [extras] ([--fault-batch]); [on_valid] runs once the page's snapshot is
    installed. Exposed for [Replica]'s rejoin path, which converts a
    falsely-deposed ex-home's parked local waits into remote fetches
    against the current home ([~extras:[]]). *)
val fetch_from_home :
  System.t -> System.node_state -> int -> extras:int list -> on_valid:(unit -> unit) -> unit

(** Make a readable page writable: create the twin (homeless/home-based),
    bind the automatic-update mirror (AURC), mark it dirty. *)
val make_writable : System.t -> System.node_state -> int -> unit

(** Effect-handler entry points: the process is suspended with continuation
    [k] and resumes once the access can proceed. *)
val read_fault :
  System.t -> System.node_state -> int -> (unit, unit) Effect.Deep.continuation -> unit

val write_fault :
  System.t -> System.node_state -> int -> (unit, unit) Effect.Deep.continuation -> unit
