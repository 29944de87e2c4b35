(** Sharded key-value store: the serving workload.

    A hash table whose buckets are sharded across the nodes as SVM pages:
    bucket [b] is one page homed at node [b mod nprocs] — also the manager
    of lock [b] — so bucket ownership travels with the lock handoff
    (IronFleet sharded-hash-table style). A cell is (put count, transfer
    delta); puts and two-bucket transactions (ordered acquire + local
    atomic step) both commute, so the final memory digest is a pure
    function of the traffic plan under any interleaving, chaos included.

    Driven by the open-loop Zipfian plan in [Traffic]; each completed
    operation is recorded via [Api.record_op], surfacing throughput and
    latency percentiles in the report's [serving] block. *)

type params = {
  buckets : int;  (** Bucket count; one SVM page each. *)
  op_us : float;  (** Simulated CPU cost of one operation's local work. *)
  traffic : Traffic.params;
}

val default : params

val name : string

(** Per-key (put count, transfer delta) accumulators from a sequential
    replay of the whole plan; the SVM run must agree exactly. *)
val reference : params -> int array * int array

(** Raises [Invalid_argument] if the plan fails [Traffic.validate], a
    bucket count or op cost is out of range, or a bucket's keys do not fit
    in a page of [page_words] words. {!body} checks this first. *)
val validate : page_words:int -> params -> unit

(** The SPMD process body; with [~verify:true] process 0 replays the plan
    and checks every cell plus global delta conservation. [body ~verify p]
    makes one {!Traffic.zipf} sampler, which every node it is applied to
    shares: apply it once per run. *)
val body : ?verify:bool -> params -> Svm.Api.ctx -> unit
