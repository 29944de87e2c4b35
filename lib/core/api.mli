(** Application programming interface of the shared virtual memory system.

    This is the Splash-2-style API the paper's prototypes expose (§3.2): a
    flat shared address space with [malloc] ([G_MALLOC]), [lock]/[unlock] and
    [barrier], plus word-granularity reads and writes. Every application
    process receives a [ctx] and runs the same code; process 0 conventionally
    allocates and initializes shared data before the first barrier.

    Addresses are 8-byte-word indices into the shared space. Reads and
    writes go through the simulated page tables: an access to an invalid
    page suspends the process, runs the configured coherence protocol, and
    resumes it with the simulated costs charged — exactly the paper's
    page-fault-driven execution, minus the real MMU. *)

type ctx

(**/**)

(* Used by the runtime to build each process's context; not part of the
   application-facing API. *)
val make_ctx : System.t -> System.node_state -> ctx

(**/**)

(** Identity of the calling process (0-based). *)
val pid : ctx -> int

(** Number of processes in the run. *)
val nprocs : ctx -> int

(** [malloc ctx ?name ?home words] allocates [words] 8-byte words of
    zero-initialized shared memory, page-aligned, and returns the base
    address. [name] registers the address for retrieval with {!root} by the
    other processes (after a barrier). [home] maps each page index within
    the allocation to its home node (home-based protocols; the "chosen
    intelligently" placement of §4.4); unhinted pages follow the configured
    {!Config.home_policy}. [scratch] (default false) marks the allocation's
    contents as schedule-dependent by design (task-queue cursors and the
    like): still fully coherent, but excluded from the final-memory digest
    that the chaos soak compares, since a different interleaving legitimately
    leaves different values there. *)
val malloc : ctx -> ?name:string -> ?home:(int -> int) -> ?scratch:bool -> int -> int

(** Address registered under [name] by a previous [malloc].
    @raise Invalid_argument if no such registration exists. *)
val root : ctx -> string -> int

(** Pages spanned by / page of an address, for building home maps. *)
val page_words : ctx -> int

(** [read ctx addr] is the word at [addr]. On a page the node cannot read,
    the process first suspends while the protocol serves the fault. *)
val read : ctx -> int -> float

(** [write ctx addr v] stores [v] at [addr], after a write fault if the
    node cannot write the page. *)
val write : ctx -> int -> float -> unit

(** Integer convenience wrappers ([float] words store integers exactly up to
    2{^53}). *)
val read_int : ctx -> int -> int

val write_int : ctx -> int -> int -> unit

(** Acquire the global lock [id]. Locks are pairwise independent; managers
    are assigned round-robin. *)
val lock : ctx -> int -> unit

val unlock : ctx -> int -> unit

(** Global barrier across all processes. *)
val barrier : ctx -> unit

(** Model [us] microseconds of local computation. *)
val compute : ctx -> float -> unit

(** Start the measured window: elapsed time, breakdowns and counters in the
    run's report are relative to this call. Call it at the same point in
    every process, right after a barrier. *)
val start_timing : ctx -> unit

(** The calling node's virtual clock, in microseconds. *)
val now : ctx -> float

(** [idle_until ctx at] advances the node's clock to [at] (a no-op when
    already past it): open-loop think time between scheduled arrivals.
    Unlike {!compute}, the chaos straggler multiplier does not apply —
    waiting for the wall clock is not processor work. *)
val idle_until : ctx -> float -> unit

(** [record_op ctx kind ~issued_at] logs one completed serving operation
    with latency [now ctx - issued_at] (clamped at 0) into the run's
    serving log — surfaced as the report's [serving] block and, when
    metrics are on, the [op_latency_us] histogram. *)
val record_op : ctx -> System.op_kind -> issued_at:float -> unit
