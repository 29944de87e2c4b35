(* Central state of a simulated SVM machine: per-node protocol state, the
   event engine, the network, and the low-level primitives every protocol
   module builds on (messages, request service, blocking/resuming the
   per-node application process).

   Timing model (see DESIGN.md): each node's compute processor is a virtual
   clock [mach.clock]; servicing an incoming request on the compute processor
   adds (interrupt + cost) to that clock and the reply is timed from the
   request's arrival. The communication co-processor is a separate
   busy-until timeline. Protocol *state* mutations happen in event order,
   which respects causality because every causal chain goes through messages
   with strictly positive latency. *)

type block_kind = Wait_data | Wait_lock | Wait_barrier | Wait_gc

(* Backup-side state for one page this node backs up ([--replicas] > 1).
   [rp_data]/[rp_flush] hold the warm copy and the per-writer cut applied
   into it: complete under the primary-backup scheme (every applied diff is
   streamed), and covering only the primary's own writes under the
   invalidation scheme (those have no surviving writer to re-flush them
   after a crash, so they are always pushed as payload). [rp_archive] holds
   the diffs homeless writers stream to the page's replica members, newest
   first; archives are never freed — that retained memory is the
   availability price the bench artifact reports. *)
type replica_page = {
  mutable rp_data : Mem.Words.t option;
  rp_flush : Proto.Vclock.t;
  mutable rp_archive : (int * int * Mem.Diff.t * Proto.Vclock.t) list;
      (* (writer, interval index, diff, writer vt at interval end) *)
}

(* Per-node, per-page protocol state.

   Homeless (LRC/OLRC) fields: [missing] holds the write notices (interval
   records) not yet reflected in the local copy, [applied] the per-writer
   maximal interval index already merged in (always a causally-closed cut).

   Home-based (HLRC/OHLRC/AURC) fields: [needed] is the per-writer flush level
   the home must have reached before the next page fetch may be served. Each
   family allocates only its own clock; the other is the run's [unused_clock]. *)
type page_info = {
  mutable missing : Proto.Interval.t list;
  mutable applied : Proto.Vclock.t;
  mutable needed : Proto.Vclock.t;
  mutable needed_counted : bool;  (* memory-accounted once *)
  mutable rc_backlog : Mem.Diff.t list;
      (* eager-RC updates that arrived while the copy was still being
         fetched, newest first; applied on install *)
  mutable own_diffs : (int * Mem.Diff.t * Proto.Vclock.t) list;
      (* this node's retained diffs of the page: (interval, diff, vt at
         interval end), newest first *)
  mutable repl : replica_page option;  (* set when this node backs the page up *)
}

(* Home-side state for a page homed at this node. [hp_flush.(i) = x] means
   all of writer [i]'s diffs up to interval [x] are applied to the master
   copy. Fetches whose [needed] exceeds [hp_flush] wait in [hp_pending]. *)
type home_page = {
  hp_flush : Proto.Vclock.t;
  mutable hp_pending : pending_fetch list;
}

and pending_fetch = {
  pf_needed : Proto.Vclock.t;
  pf_serve : float -> unit;
  pf_requester : int;
      (* who asked: lets a deposed ex-home distinguish remote fetches (to
         be fenced and dropped — the requester re-issues against the new
         home) from its own local waits, which must survive the rejoin *)
}

(* Distributed-lock state at one node (token-forwarding protocol; the
   manager is [lock mod nprocs] and tracks the last requester). *)
type lock_state = {
  mutable lk_token : bool;  (* this node is at the tail of the request chain *)
  mutable lk_held : bool;
  mutable lk_waiting : bool;  (* this node has an acquire in flight *)
  mutable lk_waiter : (int * Proto.Vclock.t) option;  (* forwarded requester *)
}

type node_state = {
  id : int;
  slowdown : float;
      (* chaos straggler multiplier on compute-processor work; exactly 1.0
         when fault injection is off, so charging [dt *. slowdown] is
         bit-identical to charging [dt] *)
  mach : Machine.Node.t;
  pt : Mem.Page_table.t;
  mutable pinfo : page_info option array;
  vt : Proto.Vclock.t;  (* vt.(i) = latest completed interval of i known *)
  mutable dirty : int list;  (* pages written during the current interval *)
  known : Proto.Interval.t list array;
      (* per creator, newest first: a physical suffix of the creator's own
         list, which receivers adopt instead of copying (Intervals) *)
  mutable homes : home_page option array;
      (* by page, grown by [grow]: the pages homed at this node. Apart
         from [pinfo], whose missing record means "took no part in this
         page" ([Invariants.page_currents]): a home that only received
         flushes has none. *)
  mutable locks : lock_state option array;  (* by lock id, grown by [grow] *)
  stats : Stats.t;
  mutable reported : int;  (* own interval index last sent to the barrier mgr *)
  (* Blocking state of the node's application process. *)
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable blocked : block_kind option;
  mutable block_clock : float;
  mutable wait_services : float;  (* service time charged while blocked *)
  mutable wait_span : int;  (* open wait-span id (-1 = none / spans off) *)
  mutable wait_resource : int;  (* resource of the open span (page/lock/epoch) *)
  mutable rc_acks : int;  (* eager RC: update acknowledgements outstanding *)
  mutable rc_drain : (float -> unit) list;
      (* eager RC: actions (grants, barrier arrivals) deferred until the
         outstanding updates are acknowledged *)
  mutable in_gc : bool;  (* protocol work is re-billed to the GC bucket *)
  mutable fault_retry : (unit -> unit) option;
      (* re-issues the blocked fault's fetch; failover bumps [fetch_gen]
         and invokes this so a fetch lost to a dead home is re-routed *)
  mutable fetch_gen : int;
      (* generation of the node's in-flight fault fetch; replies from a
         superseded generation are discarded on arrival *)
  mutable stall_mark : float;
      (* failover time while awaiting resume (-1 = none): the next resume
         records [clock - stall_mark] as this fetch's recovery stall *)
  mutable finished : bool;
  mutable start_clock : float;  (* timing window start (Api.start_timing) *)
  mutable start_breakdown : Stats.breakdown;
}

type barrier_state = {
  mutable bar_arrived : int;
  mutable bar_queue : (int * Proto.Vclock.t * Proto.Interval.batch) list;
      (* queued arrivals, newest first: (node, vt, its own chain above its
         last report) *)
  mutable bar_mem_high : bool;  (* some node exceeded the GC threshold *)
  mutable bar_epoch : int;
  mutable bar_released : int;  (* releases applied (paranoid-check trigger) *)
  mutable bar_target : int;  (* release-applies expected: manager + live arrivals *)
}

(* In-progress failover recovery of one re-homed page at its new primary
   (see [Replica]): pulled/archived diffs accumulate in [rc_pull] until the
   last writer reply lands, while normal flushes arriving mid-recovery are
   stashed in [rc_live] (applying them into a half-reconstructed master
   would be lost when the rebuilt copy is installed). *)
type recovery = {
  mutable rc_pull : (int * int * Mem.Diff.t * Proto.Vclock.t) list;
      (* (writer, interval index, diff, writer vt): applied in causal order *)
  mutable rc_live : (int * int * Mem.Diff.t) list;
      (* (writer, index, diff) flushes stashed in arrival order, newest
         first; causally after every pulled diff that touches their words *)
  mutable rc_outstanding : int;  (* writer replies still awaited *)
}

(* The machine-wide directory record of one page, in [t.dir]. A page no
   [malloc] registered reads [no_page]; [dir_entry] alone replaces it. *)
type page_dir = {
  mutable home : int;  (* moved only by migration and failover *)
  mutable keeper : int;
      (* node guaranteed to hold a full copy (the approximate copyset of
         homeless protocols): the allocator, then each GC's last writer;
         updated only at GC points, which are globally synchronized, so a
         single directory is sound *)
  mutable copyset : int array;
      (* eager RC, [||] until first use: per-node membership phase. 0 = no
         copy; 1 = copy in flight (pushes must already reach it, via the
         install backlog); 2 = installed (can serve fetches). Members are
         registered when the serving node snapshots the page, so no push
         can slip between the snapshot and the registration. *)
  mutable scratch : bool;
      (* part of a [~scratch] allocation: schedule-dependent state (e.g.
         task-queue cursors) excluded from the result digest *)
  mutable epoch : int;
      (* authority epoch, bumped at every promotion; a serve from an older
         epoch is fenced off (no split-brain double-home) *)
  mutable replicas : int array option;
      (* replica ranks (the original home, then the next node ids mod
         nprocs); set by malloc only when [replicas] > 1 *)
  mutable migration_prev : int option;
      (* home migration: dominant writer of the previous epoch
         (hysteresis: move only on two consecutive agreeing epochs) *)
  mutable failover_at : float option;  (* last failover time *)
  mutable recovering : recovery option;
      (* in-progress failover recovery at the promoted primary *)
}

(* Pre-registered instruments of the metrics flight recorder (see
   [Obs.Metrics]), built by [install_metrics] when the run asked for
   [--metrics-interval]. Registration happens once, in a fixed order, so
   serializations are deterministic; every hot-path hook below is a single
   [match] on the option when metrics are off. *)
type metrics_set = {
  ms_reg : Obs.Metrics.t;
  ms_messages : Obs.Metrics.counter;
  ms_update_bytes : Obs.Metrics.counter;
  ms_protocol_bytes : Obs.Metrics.counter;
  ms_faults : Obs.Metrics.counter;
  ms_retransmits : Obs.Metrics.counter;
  ms_drops : Obs.Metrics.counter;
  ms_repl_bytes : Obs.Metrics.counter;
  ms_inflight : Obs.Metrics.gauge;
  ms_pending : Obs.Metrics.gauge;
  ms_proto_mem : Obs.Metrics.gauge;
  ms_fetch_us : Obs.Metrics.histogram;
  ms_lock_us : Obs.Metrics.histogram;
  ms_barrier_us : Obs.Metrics.histogram;
  ms_backoff_us : Obs.Metrics.histogram;
  ms_stall_us : Obs.Metrics.histogram;
  ms_op_us : Obs.Metrics.histogram;
  ms_fault_heat : Obs.Metrics.heatmap;
  ms_diff_heat : Obs.Metrics.heatmap;
  ms_home_heat : Obs.Metrics.heatmap;
}

(* Serving-workload accumulator (kvstore): one latency log plus op kind
   counts, allocated lazily at the first recorded operation so every
   non-serving run carries a single [None]. Recording stores the latency
   unboxed into a growable float array; collect copies out the live
   prefix and sorts it in place. *)
type op_kind = Op_get | Op_put | Op_txn

type serving = {
  mutable sv_lats : float array;  (* completion order; the first [sv_count] are live *)
  mutable sv_count : int;
  mutable sv_gets : int;
  mutable sv_puts : int;
  mutable sv_txns : int;
}

type t = {
  cfg : Config.t;
  layout : Mem.Layout.t;
  engine : Sim.Engine.t;
  net : Machine.Network.t;
  nodes : node_state array;
  mutable next_addr : int;  (* shared address-space bump pointer (words) *)
  mutable dir : page_dir array;  (* by page, grown by [grow] *)
  roots : (string, int) Hashtbl.t;  (* named shared allocations *)
  mutable lock_last : int array;
      (* manager state by lock id, grown by [grow]: the last requester, or
         -1 before the first remote acquire *)
  channels : float array;
      (* (src * nprocs + dst) -> last arrival; a flat float array so the
         per-message FIFO-clamp lookup allocates no tuple key *)
  barrier : barrier_state;
  gc_on_done : (int, unit -> unit) Hashtbl.t;  (* GC reports: per-node completions *)
  mutable sink : Obs.Trace.sink option;  (* typed trace-event sink *)
  mutable next_span : int;  (* wait-span id allocator (causal layer) *)
  alive : bool array;  (* false once the chaos schedule killed the node *)
  deposed : bool array;
      (* membership view of the failure detector: true while a suspicion
         quorum has voted the node out. Distinct from [alive] (physical
         crash): a falsely-suspected node is deposed but alive, keeps
         executing, and rejoins when the suspicion is refuted. *)
  suspects : bool array array;
      (* suspects.(by).(peer): [by] currently suspects [peer] (heartbeat
         detector only; all false under the oracle) *)
  mutable failover_stalls : float list;
      (* per re-routed fetch: resume time minus failover time *)
  chaos : Machine.Chaos.t option;  (* fault plan; None = fault-free run *)
  mutable transport : Machine.Transport.t option;
      (* reliable transport over the chaotic network; installed iff [chaos]
         is, so the fault-free send path is untouched *)
  mutable metrics : metrics_set option;
      (* sampled flight recorder; installed iff [metrics_interval] > 0, so
         default runs carry no metrics code on any path *)
  mutable serving : serving option;
      (* per-op latency accumulator; installed lazily at the first
         [record_op], so non-serving apps pay nothing *)
  frames : Mem.Words.free_list;
      (* free page frames for home-fetch snapshots, per run since homes
         take them and readers release them *)
  mutable iv_scratch : Proto.Interval.t array;
      (* Intervals' staging buffer for applying a chain's unseen records
         oldest first, grown by [grow]; every slot is [no_interval] between
         walks, so it keeps no record alive *)
  unused_clock : Proto.Vclock.t;
      (* every [page_info]'s clock of the other protocol family; never
         written ([Invariants.check]) *)
}

(* The filler of [iv_scratch]'s free slots. *)
let no_interval = Proto.Interval.make ~node:(-1) ~index:(-1) ~vt:None ~pages:[]

(* What a page no [malloc] registered reads: keeper 0 (the allocator),
   epoch 0, no replicas, not scratch, and the home [page mod nprocs]
   ([home_of]). Shared by every run, so nothing may write it. *)
let no_page =
  { home = -1; keeper = 0; copyset = [||]; scratch = false; epoch = 0; replicas = None;
    migration_prev = None; failover_at = None; recovering = None }

(* The effects through which application processes enter the runtime. Only
   operations that may block are effects; everything else is a direct call. *)
type _ Effect.t +=
  | Lock_eff : int -> unit Effect.t
  | Barrier_eff : unit Effect.t
  | Read_fault_eff : int -> unit Effect.t
  | Write_fault_eff : int -> unit Effect.t

exception Deadlock of string

let header_bytes = 32

(* ------------------------------------------------------------------ *)
(* Structured observability (declared before [create] so the transport
   notify callback can emit events)                                    *)

(* Whether anyone is listening; hot paths use this to skip constructing
   event payloads when tracing is off. *)
let observing t = t.sink <> None

(* Emit one typed trace event attributed to [node] at time [time]. *)
let event_at t ~node ~time kind =
  match t.sink with
  | Some sink -> Obs.Trace.emit sink { Obs.Trace.time; node; kind }
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Causal layer: wait spans. Gated on [trace_spans] *and* a typed sink so
   default JSONL traces keep the pre-span event set byte-for-byte. *)

let spans_on t = t.cfg.Config.trace_spans && t.sink <> None

let bucket_of_kind = function
  | Wait_data -> Obs.Trace.Wb_data
  | Wait_lock -> Obs.Trace.Wb_lock
  | Wait_barrier -> Obs.Trace.Wb_barrier
  | Wait_gc -> Obs.Trace.Wb_gc

(* Open a span on [node] at [time]; returns its id (-1 when spans are off,
   which every later emission treats as "nothing to close"). *)
let span_begin t ~node ~time ~bucket ~resource =
  if not (spans_on t) then -1
  else begin
    let span = t.next_span in
    t.next_span <- span + 1;
    event_at t ~node ~time (Obs.Trace.Wait_begin { span; bucket; resource });
    span
  end

let span_end t ~node ~time ~span ~bucket ~resource =
  if span >= 0 then event_at t ~node ~time (Obs.Trace.Wait_end { span; bucket; resource })

(* ------------------------------------------------------------------ *)
(* Transport accounting: everything the reliable transport does (drops,
   retransmissions, acks, receiver dedup) lands here, where it is charged
   to per-node counters and traced. Retransmissions and acks count as
   messages with protocol bytes — reliability is protocol overhead. *)

let blocked_count t =
  Array.fold_left (fun acc n -> if n.finished then acc else acc + 1) 0 t.nodes

let transport_notify t ~time (n : Machine.Transport.notice) =
  match n with
  | Machine.Transport.Dropped { src; dst; seq; bytes; ack } ->
      (* Attributed to the copy's sender: the payload source, or the
         payload destination for a lost acknowledgement. *)
      let sender = if ack then dst else src in
      let peer = if ack then src else dst in
      let c = t.nodes.(sender).stats.Stats.c in
      c.Stats.msg_drops <- c.Stats.msg_drops + 1;
      (match t.metrics with
      | Some ms -> Obs.Metrics.add ms.ms_drops ~node:sender ~time 1.
      | None -> ());
      if observing t then
        event_at t ~node:sender ~time (Obs.Trace.Msg_drop { dst = peer; seq; bytes; ack })
  | Machine.Transport.Retransmit { src; dst; seq; retries; bytes; rto } ->
      let c = t.nodes.(src).stats.Stats.c in
      c.Stats.msg_retransmits <- c.Stats.msg_retransmits + 1;
      c.Stats.messages <- c.Stats.messages + 1;
      c.Stats.protocol_bytes <-
        c.Stats.protocol_bytes + bytes + Machine.Transport.seq_bytes;
      (match t.metrics with
      | Some ms ->
          Obs.Metrics.add ms.ms_retransmits ~node:src ~time 1.;
          Obs.Metrics.observe ms.ms_backoff_us rto
      | None -> ());
      if observing t then
        event_at t ~node:src ~time (Obs.Trace.Msg_retransmit { dst; seq; retries })
  | Machine.Transport.Dup_dropped { src; dst; seq } ->
      let c = t.nodes.(dst).stats.Stats.c in
      c.Stats.msg_dup_dropped <- c.Stats.msg_dup_dropped + 1;
      if observing t then
        event_at t ~node:dst ~time (Obs.Trace.Msg_duplicate_dropped { src; seq })
  | Machine.Transport.Ack_sent { src; dst; upto } ->
      (* The ack travels dst -> src; the receiver pays for it. *)
      let c = t.nodes.(dst).stats.Stats.c in
      c.Stats.msg_acks <- c.Stats.msg_acks + 1;
      c.Stats.messages <- c.Stats.messages + 1;
      c.Stats.protocol_bytes <- c.Stats.protocol_bytes + Machine.Transport.ack_bytes;
      if observing t then event_at t ~node:dst ~time (Obs.Trace.Msg_ack { dst = src; upto })
  | Machine.Transport.Gave_up { src; dst = _; seq = _; retries = _ } ->
      (* Retry cap breached: the payload will never arrive. Count it,
         surface it in the trace immediately; the runtime watchdog turns
         the resulting quiescence into a Deadlock with the full dump. *)
      let c = t.nodes.(src).stats.Stats.c in
      c.Stats.msg_gave_up <- c.Stats.msg_gave_up + 1;
      let inflight =
        match t.transport with
        | Some tr -> Machine.Transport.inflight_count tr
        | None -> 0
      in
      if observing t then
        event_at t ~node:src ~time
          (Obs.Trace.Watchdog_stall { blocked = blocked_count t; inflight })
  | Machine.Transport.Peer_dead { src; dst; seq; bytes } ->
      (* Attribute the abandoned packet to the live endpoint (the one that
         observed the crash); if both endpoints died, to the source. *)
      let node = if t.alive.(src) || not (t.alive.(dst)) then src else dst in
      let peer = if node = src then dst else src in
      let c = t.nodes.(node).stats.Stats.c in
      c.Stats.msg_peer_dead <- c.Stats.msg_peer_dead + 1;
      if observing t then
        event_at t ~node ~time (Obs.Trace.Msg_peer_dead { peer; seq; bytes })

let create (cfg : Config.t) =
  let nprocs = cfg.Config.nprocs in
  let layout = Mem.Layout.create ~page_words:cfg.Config.page_words in
  let chaos =
    (* The heartbeat detector needs the chaos plan (and the transport it
       parameterizes) even when the plan itself is inert: its pings ride
       the per-link verdict streams and the transport's timing model. *)
    if Config.transport_enabled cfg then
      Some (Machine.Chaos.create cfg.Config.chaos ~nprocs)
    else None
  in
  let node id =
    {
      id;
      slowdown =
        (match chaos with Some ch -> Machine.Chaos.slowdown ch ~node:id | None -> 1.0);
      mach = Machine.Node.create id;
      pt = Mem.Page_table.create layout;
      pinfo = [||];
      vt = Proto.Vclock.create ~nprocs;
      dirty = [];
      known = Array.make nprocs [];
      homes = [||];
      locks = [||];
      stats = Stats.create ();
      reported = -1;
      cont = None;
      blocked = None;
      block_clock = 0.;
      wait_services = 0.;
      wait_span = -1;
      wait_resource = 0;
      rc_acks = 0;
      rc_drain = [];
      in_gc = false;
      fault_retry = None;
      fetch_gen = 0;
      stall_mark = -1.;
      finished = false;
      start_clock = 0.;
      start_breakdown = Stats.breakdown_zero ();
    }
  in
  let t =
    {
      cfg;
      layout;
      (* Steady state pends a few events per node (timers, transfers,
         barrier wakeups), so seed the event set accordingly. *)
      engine = Sim.Engine.create ~capacity:(4 * cfg.Config.nprocs) ();
      net = Machine.Network.create ~costs:cfg.Config.costs ~nprocs;
      nodes = Array.init nprocs node;
    next_addr = 0;
    dir = [||];
    roots = Hashtbl.create 16;
    lock_last = [||];
    channels = Array.make (nprocs * nprocs) 0.;
    barrier =
      {
        bar_arrived = 0;
        bar_queue = [];
        bar_mem_high = false;
        bar_epoch = 0;
        bar_released = 0;
        bar_target = nprocs;
      };
      gc_on_done = Hashtbl.create 8;
      sink = None;
      next_span = 0;
      alive = Array.make nprocs true;
      deposed = Array.make nprocs false;
      suspects = Array.make_matrix nprocs nprocs false;
      failover_stalls = [];
      chaos;
      transport = None;
      metrics = None;
      serving = None;
      frames = Mem.Words.free_list ~poison:cfg.Config.paranoid;
      iv_scratch = [||];
      unused_clock = Proto.Vclock.create ~nprocs;
    }
  in
  (match chaos with
  | Some ch ->
      t.transport <-
        Some
          (Machine.Transport.create ~engine:t.engine ~net:t.net ~chaos:ch
             ~alive:(fun n -> t.alive.(n))
             ~notify:(fun ~time n -> transport_notify t ~time n)
             ())
  | None -> ());
  t

let nprocs t = t.cfg.Config.nprocs

let costs t = t.cfg.Config.costs

let home_based t = Config.home_based t.cfg.Config.protocol

let overlapped t = Config.overlapped t.cfg.Config.protocol

let aurc t = t.cfg.Config.protocol = Config.Aurc

let eager_rc t = t.cfg.Config.protocol = Config.Rc

(* Homeless protocols with lazy diff retention (the ones that need GC). *)
let homeless_lazy t =
  match t.cfg.Config.protocol with
  | Config.Lrc | Config.Olrc -> true
  | Config.Hlrc | Config.Ohlrc | Config.Aurc | Config.Rc -> false

let now t = Sim.Engine.now t.engine

(* ------------------------------------------------------------------ *)
(* Metrics flight recorder ([--metrics-interval]; see Obs.Metrics)     *)

(* Build and install the instrument set into [reg]. Registration order is
   the serialization order of the timeline block and the CSV, so keep it
   fixed. *)
let install_metrics t reg =
  let open Obs.Metrics in
  (* Sequential lets, not a record literal: record fields evaluate in an
     unspecified order, and registration order is the serialization
     order. *)
  let ms_messages = counter reg "messages" in
  let ms_update_bytes = counter reg "update_bytes" in
  let ms_protocol_bytes = counter reg "protocol_bytes" in
  let ms_faults = counter reg "faults" in
  let ms_retransmits = counter reg "retransmits" in
  let ms_drops = counter reg "drops" in
  let ms_repl_bytes = counter reg "repl_bytes" in
  let ms_inflight = gauge ~per_node:false reg "inflight_packets" in
  let ms_pending = gauge ~per_node:false reg "engine_events" in
  let ms_proto_mem = gauge reg "proto_mem_bytes" in
  let ms_fetch_us = histogram reg "page_fetch_us" in
  let ms_lock_us = histogram reg "lock_acquire_us" in
  let ms_barrier_us = histogram reg "barrier_wait_us" in
  let ms_backoff_us = histogram reg "retransmit_backoff_us" in
  let ms_stall_us = histogram reg "recovery_stall_us" in
  let ms_op_us = histogram reg "op_latency_us" in
  let ms_fault_heat = heatmap reg "page_faults" in
  let ms_diff_heat = heatmap reg "page_diffs" in
  let ms_home_heat = heatmap reg "page_home" in
  t.metrics <-
    Some
      {
        ms_reg = reg;
        ms_messages;
        ms_update_bytes;
        ms_protocol_bytes;
        ms_faults;
        ms_retransmits;
        ms_drops;
        ms_repl_bytes;
        ms_inflight;
        ms_pending;
        ms_proto_mem;
        ms_fetch_us;
        ms_lock_us;
        ms_barrier_us;
        ms_backoff_us;
        ms_stall_us;
        ms_op_us;
        ms_fault_heat;
        ms_diff_heat;
        ms_home_heat;
      }

let metrics_registry t = Option.map (fun ms -> ms.ms_reg) t.metrics

(* One cadence tick of the gauges: transport in-flight packets, engine
   event-set size, per-node live protocol memory. Driven by the runtime's
   sampler (and once at the end of the run). *)
let sample_metrics t ~time =
  match t.metrics with
  | None -> ()
  | Some ms ->
      let inflight =
        match t.transport with
        | Some tr -> Machine.Transport.inflight_count tr
        | None -> 0
      in
      Obs.Metrics.sample ms.ms_inflight ~node:0 ~time (float_of_int inflight);
      Obs.Metrics.sample ms.ms_pending ~node:0 ~time
        (float_of_int (Sim.Engine.pending t.engine));
      Array.iter
        (fun node ->
          Obs.Metrics.sample ms.ms_proto_mem ~node:node.id ~time
            (float_of_int (Mem.Accounting.current node.stats.Stats.proto_mem)))
        t.nodes

(* ------------------------------------------------------------------ *)
(* Structured observability ([observing]/[event_at] live above [create]) *)

(* Emission at the node's current virtual clock (the common case). *)
let event t node kind =
  if observing t then event_at t ~node:node.id ~time:node.mach.Machine.Node.ck.Machine.Node.clock kind

(* ------------------------------------------------------------------ *)
(* Recording: the one place a protocol fact is counted. Each fact with a
   report counter or a metric series has one function here that bumps its
   [Stats] counters, feeds its [Obs.Metrics] series when the recorder is
   installed, and emits its trace event, built only under a sink. The
   protocol modules call these and touch none of the three. Messages are
   recorded in [send] and [transport_notify], waits in [close_wait].
   test/test_record.ml states how each counter, series and kind relate. *)

let counters node = node.stats.Stats.c

(* Every trapped access feeds the [faults] series and page heatmap; the
   write ones also count in [write_faults]. *)
let record_fault t node ~page ~write =
  let c = counters node in
  if write then c.Stats.write_faults <- c.Stats.write_faults + 1;
  match t.metrics with
  | Some ms ->
      Obs.Metrics.add ms.ms_faults ~node:node.id
        ~time:node.mach.Machine.Node.ck.Machine.Node.clock 1.;
      Obs.Metrics.hit ms.ms_fault_heat ~page 1.
  | None -> ()

(* A fault that fetches or collects its page (all but a home's first
   touch of a page homed there); no series, no trace kind. *)
let record_read_miss node =
  let c = counters node in
  c.Stats.read_misses <- c.Stats.read_misses + 1

(* A home fetch of [page], with [extras] adjacent pages piggybacked. *)
let record_page_fetch t node ~page ~home ~extras =
  let c = counters node in
  c.Stats.page_fetches <- c.Stats.page_fetches + 1;
  if observing t then event t node (Obs.Trace.Page_fetch { page; home });
  if extras > 0 then begin
    c.Stats.batch_prefetches <- c.Stats.batch_prefetches + extras;
    if observing t then event t node (Obs.Trace.Batch_fetch { page; home; pages = 1 + extras })
  end

let record_full_page_fetch t node ~page ~source =
  let c = counters node in
  c.Stats.page_fetches <- c.Stats.page_fetches + 1;
  if observing t then event t node (Obs.Trace.Full_page_fetch { page; source })

let record_fenced_fetch t node ~time ~page ~requester =
  let c = counters node in
  c.Stats.fenced_fetches <- c.Stats.fenced_fetches + 1;
  if observing t then event_at t ~node:node.id ~time (Obs.Trace.Fenced_fetch { page; requester })

let record_failover t node ~time ~page ~from_ ~to_ =
  let c = counters node in
  c.Stats.failovers <- c.Stats.failovers + 1;
  if observing t then event_at t ~node:node.id ~time (Obs.Trace.Failover { page; from_; to_ })

(* The [page_diffs] heatmap beside [page_faults]: a page hot in both
   under a fine interleaving is false sharing. *)
let record_diff_create t node diff =
  let c = counters node and page = Mem.Diff.page diff in
  c.Stats.diffs_created <- c.Stats.diffs_created + 1;
  (match t.metrics with Some ms -> Obs.Metrics.hit ms.ms_diff_heat ~page 1. | None -> ());
  if observing t then
    event t node
      (Obs.Trace.Diff_create
         { page; words = Mem.Diff.word_count diff; bytes = Mem.Diff.size_bytes diff })

(* A diff applied to [node]'s copy. Eager RC's push-time apply is not
   [counted]: the member counts the push when it arrives
   ([record_eager_update]). *)
let record_diff_apply t node diff ~counted =
  let c = counters node in
  if counted then c.Stats.diffs_applied <- c.Stats.diffs_applied + 1;
  if observing t then
    event t node
      (Obs.Trace.Diff_apply
         { page = Mem.Diff.page diff; words = Mem.Diff.word_count diff;
           bytes = Mem.Diff.size_bytes diff })

let record_eager_update t member ~writer diff =
  let c = counters member in
  c.Stats.diffs_applied <- c.Stats.diffs_applied + 1;
  if observing t then
    event t member
      (Obs.Trace.Eager_update
         { page = Mem.Diff.page diff; writer; bytes = Mem.Diff.size_bytes diff })

(* A flush arriving at [home]; [applied] unless stashed behind a recovery
   or already reflected in the master. *)
let record_flush t home ~writer ~index diff ~applied =
  let c = counters home in
  if applied then c.Stats.diffs_applied <- c.Stats.diffs_applied + 1;
  if observing t then
    event t home
      (Obs.Trace.Diff_flush
         { page = Mem.Diff.page diff; writer; index; bytes = Mem.Diff.size_bytes diff })

(* AURC: one [send] models the last of an interval's combined
   automatic-update messages to a home; the [messages] before it are
   counted here, header-only, with no series and no trace kind. *)
let record_au_combined node ~messages =
  let c = counters node in
  c.Stats.messages <- c.Stats.messages + messages;
  c.Stats.update_bytes <- c.Stats.update_bytes + (header_bytes * messages)

let record_lock_acquire t node ~lock ~remote =
  let c = counters node in
  c.Stats.lock_acquires <- c.Stats.lock_acquires + 1;
  if remote then c.Stats.remote_acquires <- c.Stats.remote_acquires + 1;
  if observing t then event t node (Obs.Trace.Lock_acquire { lock; remote })

let record_barrier_arrive t node ~epoch ~intervals =
  let c = counters node in
  c.Stats.barriers <- c.Stats.barriers + 1;
  if observing t then event t node (Obs.Trace.Barrier_arrive { epoch; intervals })

let record_gc_start t node =
  let c = counters node in
  c.Stats.gc_runs <- c.Stats.gc_runs + 1;
  if observing t then
    event t node
      (Obs.Trace.Gc_start { mem_bytes = Mem.Accounting.current node.stats.Stats.proto_mem })

(* [node] ships [page]'s master away; the new home [dst] counts it. *)
let record_home_migration t node ~page ~dst =
  let c = counters t.nodes.(dst) in
  c.Stats.home_migrations <- c.Stats.home_migrations + 1;
  if observing t then event t node (Obs.Trace.Home_migration { page; dst })

(* Replica traffic from [node] to the backup [dst]: an update (a streamed
   or archived diff of [bytes]) or a header-only invalidation. *)
let record_repl t node ~time ~page ~dst ~bytes ~update =
  let c = counters node in
  if update then c.Stats.repl_updates <- c.Stats.repl_updates + 1
  else c.Stats.repl_invals <- c.Stats.repl_invals + 1;
  c.Stats.repl_bytes <- c.Stats.repl_bytes + bytes;
  (match t.metrics with
  | Some ms -> Obs.Metrics.add ms.ms_repl_bytes ~node:node.id ~time (float_of_int bytes)
  | None -> ());
  if observing t then
    event_at t ~node:node.id ~time
      (if update then Obs.Trace.Repl_update { page; dst; bytes }
       else Obs.Trace.Repl_inval { page; dst })

(* Failover recovery: a pull request or reply of [bytes] carrying [pulled]
   retained diffs, or the promoted primary's apply of [applied] of them.
   No series, no trace kind. *)
let record_recovery node ~pulled ~bytes ~applied =
  let c = counters node in
  c.Stats.repl_updates <- c.Stats.repl_updates + pulled;
  c.Stats.repl_bytes <- c.Stats.repl_bytes + bytes;
  c.Stats.diffs_applied <- c.Stats.diffs_applied + applied

(* The heartbeat detector's [by] starts ([raised]) or stops suspecting
   [peer]. *)
let record_suspicion t ~by ~peer ~time ~raised =
  let c = counters t.nodes.(by) in
  if raised then c.Stats.suspicions <- c.Stats.suspicions + 1
  else c.Stats.refutations <- c.Stats.refutations + 1;
  if observing t then
    event_at t ~node:by ~time
      (if raised then Obs.Trace.Suspect { peer } else Obs.Trace.Refute { peer })

(* ------------------------------------------------------------------ *)
(* Page metadata                                                      *)

(* The doubling rule of the tables indexed by page or lock id: [a] grown
   to hold index [i], at least 64 slots and twice its length, the new
   slots holding [fill]. *)
let grow a i fill =
  let capacity = Array.length a in
  let a' = Array.make (max 64 (max (2 * capacity) (i + 1))) fill in
  Array.blit a 0 a' 0 capacity;
  a'

(* [page]'s directory record, [no_page] until [dir_entry] makes one. *)
let dir t page = if page < Array.length t.dir then t.dir.(page) else no_page

(* [page]'s own directory record, made from [no_page] on first use: the
   one way to write the directory. *)
let dir_entry t page =
  if page >= Array.length t.dir then t.dir <- grow t.dir page no_page;
  if t.dir.(page) == no_page then t.dir.(page) <- { no_page with home = page mod nprocs t };
  t.dir.(page)

let page_info t node page =
  if page >= Array.length node.pinfo then node.pinfo <- grow node.pinfo page None;
  match node.pinfo.(page) with
  | Some pi -> pi
  | None ->
      let clock used = if used then Proto.Vclock.create ~nprocs:(nprocs t) else t.unused_clock in
      let pi =
        {
          missing = [];
          applied = clock (not (home_based t));
          needed = clock (home_based t);
          needed_counted = false;
          rc_backlog = [];
          own_diffs = [];
          repl = None;
        }
      in
      node.pinfo.(page) <- Some pi;
      pi

let home_of t page =
  let d = dir t page in
  if d == no_page then page mod nprocs t else d.home

(* Node holding a full copy of [page] for homeless full-page fetches: the
   last GC's keeper, or the allocator before any collection. *)
let keeper_of t page = (dir t page).keeper

let home_page t node page =
  if page >= Array.length node.homes then node.homes <- grow node.homes page None;
  match node.homes.(page) with
  | Some hp -> hp
  | None ->
      let hp = { hp_flush = Proto.Vclock.create ~nprocs:(nprocs t); hp_pending = [] } in
      node.homes.(page) <- Some hp;
      (* Home directory entry: one flush vector per owned page. *)
      Mem.Accounting.add node.stats.Stats.proto_mem (Proto.Vclock.size_bytes hp.hp_flush);
      hp

(* ------------------------------------------------------------------ *)
(* Waits on a home's flush level                                      *)

(* Every wait on a home's flush level parks here: a remote fetch, a node
   reading its own master copy, a migrating home's transfer. [serve] runs
   once the flush level covers [needed]. *)
let park_pending hp ~needed ~requester serve =
  hp.hp_pending <-
    { pf_needed = needed; pf_serve = serve; pf_requester = requester } :: hp.hp_pending

(* Serve the waits the current flush level now covers. [at] is the time the
   enabling update finished applying. *)
let serve_pending hp ~at =
  let ready, still =
    List.partition (fun pf -> Proto.Vclock.leq pf.pf_needed hp.hp_flush) hp.hp_pending
  in
  hp.hp_pending <- still;
  List.iter (fun pf -> pf.pf_serve at) ready

let take_pending hp =
  let all = hp.hp_pending in
  hp.hp_pending <- [];
  all

(* [node] reads its own master copy only once the flushes it needs have
   landed there. The node stays accounted to the bucket it is blocked in;
   a nested [Wb_home] span records which master copy it is pinned on. [k]
   runs at the node's synced clock. *)
let await_own_master t node page k =
  let hp = home_page t node page in
  let span =
    span_begin t ~node:node.id ~time:node.mach.Machine.Node.ck.Machine.Node.clock
      ~bucket:Obs.Trace.Wb_home ~resource:page
  in
  park_pending hp ~needed:(Proto.Vclock.copy (page_info t node page).needed) ~requester:node.id
    (fun at ->
      Machine.Node.sync_to node.mach at;
      span_end t ~node:node.id ~time:node.mach.Machine.Node.ck.Machine.Node.clock ~span
        ~bucket:Obs.Trace.Wb_home ~resource:page;
      k ())

(* ------------------------------------------------------------------ *)
(* Causal order of diffs                                              *)

(* A comparison sort on the causal partial order itself is unsound
   (incomparable pairs compare equal, breaking transitivity), but the sum
   of a timestamp's entries is strictly monotone in the pointwise order:
   a < b implies sum(a) < sum(b). Sorting by (sum, writer, index) is
   therefore a linear extension of causality, computed in O(k log k).
   Same-sum diffs are equal or concurrent, and concurrent diffs touch
   disjoint words in data-race-free programs, so their order is free. *)
let causal_key vt ~writer ~index =
  let sum = ref 0 in
  for i = 0 to Proto.Vclock.nprocs vt - 1 do
    sum := !sum + Proto.Vclock.get vt i
  done;
  (!sum, writer, index)

(* [compare] on the key triples, without the polymorphic comparison. *)
let compare_causal_keys (s1, w1, i1) (s2, w2, i2) =
  if s1 <> s2 then Int.compare s1 s2
  else if w1 <> w2 then Int.compare w1 w2
  else Int.compare i1 i2

let causal_sort diffs =
  List.map (fun ((writer, index, _, vt) as d) -> (causal_key vt ~writer ~index, d)) diffs
  |> List.sort (fun (ka, _) (kb, _) -> compare_causal_keys ka kb)
  |> List.map snd

let diff_apply_cost (c : Machine.Costs.t) diff =
  c.Machine.Costs.diff_apply_base
  +. (float_of_int (Mem.Diff.word_count diff) *. c.Machine.Costs.diff_apply_per_word)

(* ------------------------------------------------------------------ *)
(* Time charging                                                      *)

(* All compute-processor work stretches by the node's chaos straggler
   multiplier ([1.0], hence bit-exact identity, on fault-free runs). The
   communication co-processor is not slowed: it is dedicated hardware. *)

(* The two charge functions bump the clock directly rather than through
   [Machine.Node.advance]: a cross-module call would box [dt]. All stores
   here are to all-float records, so a charge allocates nothing. The
   application's own work, its loads and stores included, is charged in
   [Api].

   Protocol/GC work can also run while the node's process is blocked (e.g.
   write-notice handling on a lock grant, interrupt service); crediting it to
   [wait_services] keeps the wait buckets from double-counting it. *)
let charge_protocol node dt =
  let dt = dt *. node.slowdown in
  let ck = node.mach.Machine.Node.ck in
  ck.Machine.Node.clock <- ck.Machine.Node.clock +. dt;
  let b = node.stats.Stats.b in
  if node.in_gc then b.Stats.gc <- b.Stats.gc +. dt
  else b.Stats.protocol <- b.Stats.protocol +. dt;
  if node.blocked <> None then node.wait_services <- node.wait_services +. dt

(* ------------------------------------------------------------------ *)
(* Serving-workload operation log                                     *)

let record_op t kind ~latency =
  let s =
    match t.serving with
    | Some s -> s
    | None ->
        let s =
          { sv_lats = Array.make 1024 0.; sv_count = 0; sv_gets = 0; sv_puts = 0; sv_txns = 0 }
        in
        t.serving <- Some s;
        s
  in
  if s.sv_count = Array.length s.sv_lats then begin
    let lats = Array.make (2 * s.sv_count) 0. in
    Array.blit s.sv_lats 0 lats 0 s.sv_count;
    s.sv_lats <- lats
  end;
  s.sv_lats.(s.sv_count) <- latency;
  s.sv_count <- s.sv_count + 1;
  (match kind with
  | Op_get -> s.sv_gets <- s.sv_gets + 1
  | Op_put -> s.sv_puts <- s.sv_puts + 1
  | Op_txn -> s.sv_txns <- s.sv_txns + 1);
  match t.metrics with
  | Some ms -> Obs.Metrics.observe ms.ms_op_us latency
  | None -> ()

let serving_log t = t.serving

(* ------------------------------------------------------------------ *)
(* Messages                                                           *)

(* [send t ~src ~dst ~at ~bytes ~update handler] delivers a message sent at
   time [at]; [handler] runs at the arrival time. [update] is the portion of
   [bytes] classified as update traffic (diff/page payload). Channels
   between a (src, dst) pair are FIFO, as on a wormhole mesh: a later send
   never overtakes an earlier one, which the home-based protocols rely on
   (diff flush followed by lock grant to the home). *)
let send t ~src ~dst ~at ~bytes ~update handler =
  if not (Array.unsafe_get t.alive src.id) then
    (* Crash-stopped sender: its links are silenced, so the message never
       leaves the node. Local execution may continue, invisibly. *)
    ()
  else begin
  let c = src.stats.Stats.c in
  if src.id <> dst then begin
    c.Stats.messages <- c.Stats.messages + 1;
    c.Stats.update_bytes <- c.Stats.update_bytes + update;
    c.Stats.protocol_bytes <- c.Stats.protocol_bytes + (bytes - update);
    (match t.metrics with
    | Some ms ->
        Obs.Metrics.add ms.ms_messages ~node:src.id ~time:at 1.;
        Obs.Metrics.add ms.ms_update_bytes ~node:src.id ~time:at (float_of_int update);
        Obs.Metrics.add ms.ms_protocol_bytes ~node:src.id ~time:at
          (float_of_int (bytes - update))
    | None -> ());
    if observing t then
      event_at t ~node:src.id ~time:at (Obs.Trace.Msg_send { dst; bytes; update })
  end;
  match t.transport with
  | Some tr when src.id <> dst ->
      (* Chaos run: hand the payload to the reliable transport, which owns
         sequencing, dedup, the per-link FIFO clamp and retransmission, and
         delivers nothing to a crash-stopped receiver. The sequence header
         is protocol overhead on the wire. *)
      c.Stats.protocol_bytes <- c.Stats.protocol_bytes + Machine.Transport.seq_bytes;
      Machine.Transport.send tr ~src:src.id ~dst
        ~at:(Float.max at (now t))
        ~bytes
        (fun arrival ->
          if observing t then
            event_at t ~node:dst ~time:arrival
              (Obs.Trace.Msg_recv { src = src.id; bytes; update });
          handler arrival)
  | _ ->
      (* Fault-free (or loopback) fast path: exactly the pre-chaos code.
         The transfer time is [Network.transfer_time]'s sum, written out so
         that no float is boxed across the module boundary. *)
      let arrival =
        if src.id = dst then at
        else begin
          let key = (src.id * Array.length t.nodes) + dst in
          let net = t.net in
          let arrival =
            at
            +. (Array.unsafe_get net.Machine.Network.link key
               +. (float_of_int bytes *. net.Machine.Network.costs.Machine.Costs.byte_transfer))
          in
          let last = Array.unsafe_get t.channels key in
          let arrival = if arrival <= last then last +. 1e-6 else arrival in
          Array.unsafe_set t.channels key arrival;
          arrival
        end
      in
      let arrival = Float.max arrival (now t) in
      Sim.Engine.schedule t.engine ~at:arrival (fun () ->
          if not (Array.unsafe_get t.alive dst) then begin
            (* Receiver crash-stopped while the message was on the wire:
               charge the loss to the sender and drop it on the floor. The
               sender's counters are read now: the timing window may have
               replaced them since the send. *)
            let c = counters src in
            c.Stats.msg_peer_dead <- c.Stats.msg_peer_dead + 1;
            if observing t then
              event_at t ~node:src.id ~time:arrival
                (Obs.Trace.Msg_peer_dead { peer = dst; seq = -1; bytes })
          end
          else begin
            if src.id <> dst && observing t then
              event_at t ~node:dst ~time:arrival
                (Obs.Trace.Msg_recv { src = src.id; bytes; update });
            handler arrival
          end)
  end

(* ------------------------------------------------------------------ *)
(* Request service                                                    *)

(* Service an incoming request on [node]'s compute processor: interrupt plus
   [cost], charged to the node's protocol bucket (the paper's "remote request
   service" overhead). Returns the completion time for the reply. *)
let serve_compute t node ~arrival ~cost =
  let c = costs t in
  let interrupt = c.Machine.Costs.receive_interrupt *. node.slowdown in
  let cost = cost *. node.slowdown in
  let total = interrupt +. cost in
  node.stats.Stats.b.Stats.protocol <- node.stats.Stats.b.Stats.protocol +. total;
  if node.blocked <> None then node.wait_services <- node.wait_services +. total;
  Machine.Node.interrupt_service node.mach ~interrupt ~arrival ~cost

(* Service on the communication co-processor: FIFO on its own timeline, no
   compute-processor impact. *)
let serve_coproc t node ~arrival ~cost =
  let c = costs t in
  Machine.Node.coproc_service node.mach ~dispatch:c.Machine.Costs.coproc_dispatch ~arrival ~cost

(* Protocol-dependent placement: overlapped protocols serve diff/page work on
   the co-processor, non-overlapped ones on the compute processor. *)
let serve t node ~arrival ~cost =
  if overlapped t then serve_coproc t node ~arrival ~cost
  else serve_compute t node ~arrival ~cost

(* Charge protocol work initiated by the node itself (not a remote request):
   on the compute processor inline, or posted to the co-processor when the
   protocol is overlapped. Returns the completion time of the work. *)
let local_protocol_work t node ~cost =
  if overlapped t then begin
    (* The compute processor only pays the post-page request cost. *)
    let c = costs t in
    charge_protocol node c.Machine.Costs.coproc_dispatch;
    Machine.Node.coproc_service node.mach ~dispatch:c.Machine.Costs.coproc_dispatch
      ~arrival:node.mach.Machine.Node.ck.Machine.Node.clock ~cost
  end
  else begin
    charge_protocol node cost;
    node.mach.Machine.Node.ck.Machine.Node.clock
  end

(* ------------------------------------------------------------------ *)
(* Blocking and resuming application processes                         *)

let block t node ?(resource = 0) kind k =
  assert (node.blocked = None);
  assert (node.cont = None);
  node.cont <- Some k;
  node.blocked <- Some kind;
  node.block_clock <- node.mach.Machine.Node.ck.Machine.Node.clock;
  node.wait_services <- 0.;
  node.wait_resource <- resource;
  node.wait_span <-
    span_begin t ~node:node.id ~time:node.block_clock ~bucket:(bucket_of_kind kind) ~resource

(* Close the node's open wait: its time, less the request service charged
   to the node meanwhile, goes to the Figure-3 bucket of [kind] and, when
   the wait [resumes] the process, to that bucket's latency histogram; its
   span ends. *)
let close_wait t node kind ~resumes =
  let clock = node.mach.Machine.Node.ck.Machine.Node.clock in
  let wait = Float.max 0. (clock -. node.block_clock -. node.wait_services) in
  let b = node.stats.Stats.b in
  (match kind with
  | Wait_data -> b.Stats.data <- b.Stats.data +. wait
  | Wait_lock -> b.Stats.lock <- b.Stats.lock +. wait
  | Wait_barrier -> b.Stats.barrier <- b.Stats.barrier +. wait
  | Wait_gc -> b.Stats.gc <- b.Stats.gc +. wait);
  (match t.metrics with
  | Some ms when resumes -> (
      match kind with
      | Wait_data -> Obs.Metrics.observe ms.ms_fetch_us wait
      | Wait_lock -> Obs.Metrics.observe ms.ms_lock_us wait
      | Wait_barrier -> Obs.Metrics.observe ms.ms_barrier_us wait
      | Wait_gc -> ())
  | _ -> ());
  span_end t ~node:node.id ~time:clock ~span:node.wait_span ~bucket:(bucket_of_kind kind)
    ~resource:node.wait_resource;
  node.wait_span <- -1

(* Resume the node's blocked process at simulated time [at]: the wait is
   closed into its bucket, and the continuation is re-entered through the
   engine so handler stacks unwind. *)
let resume t node ~at =
  if not (Array.unsafe_get t.alive node.id) then
    (* A crash-stopped node never runs again; late wakeups (e.g. a barrier
       release already in flight when the kill fired) are dropped. *)
    ()
  else
  match (node.cont, node.blocked) with
  | Some k, Some kind ->
      node.cont <- None;
      node.blocked <- None;
      Machine.Node.sync_to node.mach at;
      close_wait t node kind ~resumes:true;
      if node.stall_mark >= 0. then begin
        (* This wait crossed a failover: the time since the failover fired
           is the recovery stall this fetch actually suffered. *)
        let stall =
          Float.max 0. (node.mach.Machine.Node.ck.Machine.Node.clock -. node.stall_mark)
        in
        t.failover_stalls <- stall :: t.failover_stalls;
        (match t.metrics with
        | Some ms -> Obs.Metrics.observe ms.ms_stall_us stall
        | None -> ());
        node.stall_mark <- -1.
      end;
      let at' = Float.max (now t) node.mach.Machine.Node.ck.Machine.Node.clock in
      Sim.Engine.schedule t.engine ~at:at' (fun () -> Effect.Deep.continue k ())
  | _ -> invalid_arg "System.resume: node is not blocked"

(* Close the current wait bucket and continue blocking under a new kind
   (barrier wait turning into GC wait). *)
let rebucket_block t node ?(resource = 0) kind =
  match node.blocked with
  | None -> invalid_arg "System.rebucket_block: node is not blocked"
  | Some old_kind ->
      close_wait t node old_kind ~resumes:false;
      node.blocked <- Some kind;
      node.block_clock <- node.mach.Machine.Node.ck.Machine.Node.clock;
      node.wait_services <- 0.;
      node.wait_resource <- resource;
      node.wait_span <-
        span_begin t ~node:node.id ~time:node.block_clock ~bucket:(bucket_of_kind kind)
          ~resource

(* ------------------------------------------------------------------ *)
(* Memory accounting helpers                                          *)

let missing_entry_bytes = 16

let account_interval node (iv : Proto.Interval.t) =
  Mem.Accounting.add node.stats.Stats.proto_mem (Proto.Interval.size_bytes iv)

let release_interval node (iv : Proto.Interval.t) =
  Mem.Accounting.sub node.stats.Stats.proto_mem (Proto.Interval.size_bytes iv)

(* ------------------------------------------------------------------ *)
(* Allocation                                                         *)

(* Allocate [words] of shared memory, page-aligned, with an optional
   per-page home map. Registers page allocator (copyset seed for homeless
   protocols) and home (home-based protocols). Returns the base address. *)
let malloc t node ?name ?home_map ?(scratch = false) words =
  if words <= 0 then invalid_arg "malloc: words must be positive";
  let base_page = Mem.Layout.pages_for t.layout t.next_addr in
  let base = Mem.Layout.base_of_page t.layout base_page in
  let npages = Mem.Layout.pages_for t.layout words in
  for i = 0 to npages - 1 do
    let page = base_page + i in
    let d = dir_entry t page in
    d.keeper <- node.id;
    d.scratch <- scratch;
    let home =
      match home_map with
      | Some f -> f i
      | None -> (
          match t.cfg.Config.home_policy with
          | Config.Round_robin -> page mod nprocs t
          | Config.Block -> min (nprocs t - 1) (i * nprocs t / npages)
          | Config.Allocator -> node.id)
    in
    d.home <- home mod nprocs t;
    (match t.metrics with
    | Some ms ->
        Obs.Metrics.set ms.ms_home_heat ~page (float_of_int (home mod nprocs t))
    | None -> ());
    if t.cfg.Config.replicas > 1 then begin
      (* Rank-ordered replica set: the home, then the next node ids. The
         failure detector promotes the first live rank on a crash. *)
      let h = home mod nprocs t and np = nprocs t in
      d.replicas <- Some (Array.init t.cfg.Config.replicas (fun j -> (h + j) mod np))
    end
  done;
  t.next_addr <- base + words;
  (match name with Some n -> Hashtbl.replace t.roots n base | None -> ());
  base

let is_scratch t page = (dir t page).scratch

let root t name =
  match Hashtbl.find_opt t.roots name with
  | Some addr -> addr
  | None -> invalid_arg (Printf.sprintf "System.root: no allocation named %S" name)

let shared_bytes t = t.next_addr * Mem.Layout.word_bytes

(* ------------------------------------------------------------------ *)
(* Home replication and node liveness ([--replicas K], chaos kills)   *)

let replicated t = t.cfg.Config.replicas > 1

let is_alive t node = Array.unsafe_get t.alive node

(* Voted out by a suspicion quorum (heartbeat detector). Orthogonal to
   [is_alive]: a deposed node may be perfectly alive (false suspicion) and
   will rejoin once refuted. *)
let is_deposed t node = Array.unsafe_get t.deposed node

(* In the cluster's current membership view: physically up and not voted
   out. Promotion targets and quorum electorates use this, never bare
   [is_alive]. *)
let is_member t node = is_alive t node && not (is_deposed t node)

(* Authority epoch of [page]: bumped at every promotion. A node serving
   the page compares the epoch it held authority under with the current
   one; a mismatch means it was deposed in between and must fence. *)
let epoch_of t page = (dir t page).epoch

let bump_epoch t page =
  let d = dir_entry t page in
  d.epoch <- d.epoch + 1

let replica_ranks t page = (dir t page).replicas

(* First member of [page]'s replica set, if any: the promotion target of a
   home-based failover, and the node homeless protocols route around a
   dead writer/keeper through. Skips deposed ranks too — promoting a node
   the quorum just voted out (it may be alive behind a partition) would
   manufacture the very split-brain the epochs exist to prevent. *)
let live_replica t page =
  match replica_ranks t page with
  | None -> None
  | Some ranks ->
      let n = Array.length ranks in
      let rec go i =
        if i >= n then None
        else if is_member t ranks.(i) then Some ranks.(i)
        else go (i + 1)
      in
      go 0

(* Lazily created backup-side state for one replicated page at [node]. *)
let replica_page t node page =
  let pi = page_info t node page in
  match pi.repl with
  | Some rp -> rp
  | None ->
      let rp =
        {
          rp_data = None;
          rp_flush = Proto.Vclock.create ~nprocs:(nprocs t);
          rp_archive = [];
        }
      in
      pi.repl <- Some rp;
      Mem.Accounting.add node.stats.Stats.proto_mem (Proto.Vclock.size_bytes rp.rp_flush);
      rp

(* Crash-stop [node] at [time]: all its links fall silent — outbound sends
   are discarded at the source, inbound deliveries are dropped on arrival —
   and, on chaos runs, the reliable transport cancels every packet in
   flight on its links so no retransmission storm follows. Local (simulated)
   execution of the victim may continue; it is invisible to the cluster. *)
let kill_node t ~node ~time =
  if Array.unsafe_get t.alive node then begin
    t.alive.(node) <- false;
    event_at t ~node ~time (Obs.Trace.Node_kill { node });
    match t.transport with
    | Some tr -> Machine.Transport.kill_peer tr ~peer:node ~time
    | None -> ()
  end

(* Backup side of a primary-backup update: apply the streamed diff into the
   warm copy (materialized as a zero page on first touch — every observable
   byte of a shared page originates from a protocol write, so zeros plus
   the applied diff stream equals the master) and advance the applied cut. *)
let deliver_repl_update t backup ~arrival ~page ~writer ~index diff =
  ignore (serve t backup ~arrival ~cost:(diff_apply_cost (costs t) diff));
  let rp = replica_page t backup page in
  let data =
    match rp.rp_data with
    | Some d -> d
    | None ->
        let d = Mem.Words.make (Mem.Layout.page_words t.layout) in
        rp.rp_data <- Some d;
        Mem.Accounting.add backup.stats.Stats.proto_mem
          (Mem.Layout.page_words t.layout * Mem.Layout.word_bytes);
        d
  in
  Mem.Diff.apply diff data;
  if index > Proto.Vclock.get rp.rp_flush writer then
    Proto.Vclock.set rp.rp_flush writer index

(* Backup side of an archived diff (homeless writers, and the primary's
   own diffs under [Inval]): kept with its writer's interval and vector
   time, for failover to replay in causal order. *)
let archive t backup ~arrival ~page ~writer ~index diff vt =
  ignore (serve t backup ~arrival ~cost:2.);
  let rp = replica_page t backup page in
  rp.rp_archive <- (writer, index, diff, vt) :: rp.rp_archive;
  Mem.Accounting.add backup.stats.Stats.proto_mem (Mem.Diff.size_bytes diff);
  rp

(* Keep [page]'s backups consistent after the primary applied a diff.
   [payload] forces a full-diff push regardless of scheme: the primary's
   own writes have no surviving writer to re-flush them after a crash, so
   both schemes stream those. Otherwise the scheme decides: [Backup]
   streams the diff, [Inval] sends a header-only invalidation record
   (recovery pulls the retained diffs back from the live writers).

   Under [Backup] the streamed diff is applied into the warm copy: the
   primary->backup channel is FIFO and the primary's own apply order is
   causally gated, so arrival order at the backup is sound. Under [Inval]
   a payload push (the primary's own diff, [vt] = its timestamp) is
   archived instead — the warm copy would otherwise hold values causally
   later than the diffs recovery pulls back, and applying those pulled
   diffs over it would resurrect stale words. Recovery rebuilds from zeros
   plus the causally-sorted union of archive and pulled diffs.

   All traffic is protocol overhead, charged to the timing model and
   counted in the replication counters. *)
let propagate_update t prim ~page ~writer ~index ~diff ~vt ~at ~payload =
  match replica_ranks t page with
  | None -> ()
  | Some ranks ->
      Array.iter
        (fun r ->
          if r <> prim.id && Array.unsafe_get t.alive r then
            if t.cfg.Config.repl_scheme = Config.Backup then begin
              let bytes = header_bytes + Mem.Diff.size_bytes diff in
              record_repl t prim ~time:at ~page ~dst:r ~bytes ~update:true;
              send t ~src:prim ~dst:r ~at ~bytes ~update:0 (fun arrival ->
                  deliver_repl_update t t.nodes.(r) ~arrival ~page ~writer ~index diff)
            end
            else if payload then begin
              (* Inval scheme, payload push: archive at the backup. *)
              let vt =
                match vt with
                | Some v -> v
                | None -> invalid_arg "propagate_update: payload push without a timestamp"
              in
              let bytes =
                header_bytes + Mem.Diff.size_bytes diff + Proto.Vclock.size_bytes vt
              in
              record_repl t prim ~time:at ~page ~dst:r ~bytes ~update:true;
              send t ~src:prim ~dst:r ~at ~bytes ~update:0 (fun arrival ->
                  let rp = archive t t.nodes.(r) ~arrival ~page ~writer ~index diff vt in
                  if index > Proto.Vclock.get rp.rp_flush writer then
                    Proto.Vclock.set rp.rp_flush writer index)
            end
            else begin
              record_repl t prim ~time:at ~page ~dst:r ~bytes:header_bytes ~update:false;
              send t ~src:prim ~dst:r ~at ~bytes:header_bytes ~update:0 (fun arrival ->
                  ignore (serve t t.nodes.(r) ~arrival ~cost:2.))
            end)
        ranks

(* Homeless replication: the writer streams each retained diff (with its
   interval index and vector time) to the page's replica members, which
   archive it. A dead writer's diffs are then served from the archive of
   the first live member; a dead keeper's full page is reconstructed from
   zeros plus the archive. Both schemes behave identically here — there is
   no master copy to invalidate. *)
let propagate_archive t writer ~page ~index ~diff ~vt ~at =
  match replica_ranks t page with
  | None -> ()
  | Some ranks ->
      Array.iter
        (fun r ->
          if r <> writer.id && Array.unsafe_get t.alive r then begin
            let bytes = header_bytes + Mem.Diff.size_bytes diff in
            record_repl t writer ~time:at ~page ~dst:r ~bytes ~update:true;
            let wid = writer.id in
            send t ~src:writer ~dst:r ~at ~bytes ~update:0 (fun arrival ->
                ignore (archive t t.nodes.(r) ~arrival ~page ~writer:wid ~index diff vt))
          end)
        ranks

(* ------------------------------------------------------------------ *)
(* Eager RC support                                                   *)

let copyset t page =
  let d = dir_entry t page in
  if Array.length d.copyset = 0 then d.copyset <- Array.make (nprocs t) 0;
  d.copyset

(* Joining member: pushes from now on must reach it. *)
let register_copy t node page =
  let set = copyset t page in
  if set.(node.id) = 0 then set.(node.id) <- 1

(* The member's copy is installed and may serve fetches. *)
let mark_copy_installed t node page = (copyset t page).(node.id) <- 2

(* A member whose copy is installed, if any. *)
let installed_member t page =
  let set = copyset t page in
  let rec go i =
    if i >= Array.length set then None else if set.(i) = 2 then Some i else go (i + 1)
  in
  go 0

(* Run [f] once all of this node's pushed updates are acknowledged (eager
   RC release semantics: the handoff must not overtake the updates). *)
let rc_drained t node = (not (eager_rc t)) || node.rc_acks = 0

let rc_when_drained t node f =
  if rc_drained t node then f node.mach.Machine.Node.ck.Machine.Node.clock
  else node.rc_drain <- f :: node.rc_drain

let rc_ack_arrived t node ~at =
  assert (node.rc_acks > 0);
  node.rc_acks <- node.rc_acks - 1;
  Machine.Node.sync_to node.mach at;
  ignore t;
  if node.rc_acks = 0 then begin
    let actions = List.rev node.rc_drain in
    node.rc_drain <- [];
    List.iter (fun f -> f node.mach.Machine.Node.ck.Machine.Node.clock) actions
  end
