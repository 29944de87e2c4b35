(** Adaptive home migration (extension; home-based protocols, enabled with
    {!Config.t.home_migration}).

    At barrier completion the manager re-homes pages whose dominant writer
    of the epoch is not their home: the directory is updated before the
    releases go out, and the old home ships the master copy and flush
    timestamps to the new home once every announced diff has landed. The
    new home installs it as any fetched copy ({!Faults.install_copy}). See
    the module implementation for the quiescence argument. *)

(** [run sys arrivals release] is called by the barrier manager at
    completion with the write notices of the barrier's arrivals, in queue
    order, and the barrier's releases. It moves
    no page unless the protocol is home-based and migration is enabled.
    [release] runs at once when no page moves, and otherwise once every
    transfer has landed, so no node resumes before the masters it will
    flush to are in place. *)
val run : System.t -> Proto.Interval.batch list -> (unit -> unit) -> unit
