(** The [kvstore-skew] bench artifact: a protocol x Zipfian-skew x write-mix
    sweep of the sharded KV-store serving workload.

    Every cell replays the same open-loop plan (same op count, offered rate
    and seed), so throughput and latency percentiles are directly comparable
    across cells; only the key-popularity skew ([theta]) and write mix vary.
    Cells run with verification off so the reference replay's page reads do
    not land inside the timing window. *)

type row = {
  sv_proto : Svm.Config.protocol;
  sv_theta : float;
  sv_write_ratio : float;
  sv_ops : int;
  sv_throughput : float;  (** completed operations per simulated second *)
  sv_p50_us : float;
  sv_p99_us : float;
  sv_max_us : float;
}

val default_thetas : float list

val default_write_ratios : float list

(** [report ppf ()] evaluates every (protocol, theta, write ratio) cell and
    renders the rows in protocol-major enumeration order. [params] overrides
    the scale-default kvstore parameters (theta and write ratio are then
    patched per cell). Results are byte-identical for any [pool] width. *)
val report :
  Format.formatter ->
  ?pool:Pool.t ->
  ?scale:Apps.Registry.scale ->
  ?nprocs:int ->
  ?thetas:float list ->
  ?write_ratios:float list ->
  ?params:Apps.Kvstore.params ->
  unit ->
  unit
