(* One fact, recorded once. System records each protocol fact through one
   function that bumps its report counters, feeds its metric series and
   emits its trace event. [rows] states, for every report counter and every
   instrument of the metrics recorder, what the trace of the same run adds
   up to, and the tests check it exactly:

   - every series against the trace, per node and time bucket (and every
     histogram and heatmap in total), on each identity cell at 4 nodes and
     each report case; neither side is windowed;
   - every counter and every series against the trace on test_random's
     data-race-free programs, which never call [Api.start_timing] (it cuts
     the counters' window, not the trace's), under all six protocols:
     fault-free, with drops and duplicates, and on small pages with
     replicas, batched misses and a paused node that fails over;
   - every counter a report case's JSON carries, and every instrument the
     recorder registers, is a row.

   Every run turns wait spans on: their [Wait_begin]/[Wait_end] events are
   the trace side of the fault series and the wait histograms. *)

open Obs.Trace

let check = Alcotest.check

(* A run and its trace. [sent] maps (src, dst, sequence number) to the
   bytes of that payload: the transport numbers each link's payloads from
   0 in send order, so the k-th [Msg_send] on a link is the packet a
   [Msg_retransmit] of sequence k copies (a send refused to a dead peer
   takes no number, but no counter run kills a node). *)
type run = {
  report : Svm.Runtime.report;
  events : event array;
  sent : (int * int * int, int) Hashtbl.t;
}

let observe cfg body =
  let sink = Obs.Trace.create_sink ~capacity:10_000_000 () in
  let report = Svm.Runtime.run ~sink cfg body in
  check Alcotest.int "trace complete" 0 (Obs.Trace.dropped sink);
  let events = Array.of_list (Obs.Trace.events sink) in
  let sent = Hashtbl.create 256 and next = Hashtbl.create 16 in
  Array.iter
    (fun ev ->
      match ev.kind with
      | Msg_send { dst; bytes; _ } ->
          let seq = Option.value ~default:0 (Hashtbl.find_opt next (ev.node, dst)) in
          Hashtbl.replace next (ev.node, dst) (seq + 1);
          Hashtbl.replace sent (ev.node, dst, seq) bytes
      | _ -> ())
    events;
  { report; events; sent }

let header = Svm.System.header_bytes

(* AURC's combined automatic updates ([System.record_au_combined]): an
   interval's flush to a home is the one AURC message carrying a payload
   behind a bare header, 12 bytes (address and word) per update; the
   updates travel [au_combine_words] to a message, and the flush stands
   for the last of them. *)
let au_combined r ~bytes ~update =
  let cfg = r.report.Svm.Runtime.r_config in
  if cfg.Svm.Config.protocol = Svm.Config.Aurc && bytes - update = header then
    let combine = max 1 cfg.Svm.Config.au_combine_words in
    max 1 (((update / 12) + combine - 1) / combine) - 1
  else 0

(* Eager RC applies a push to a member's copy while the writer pushes it:
   that [Diff_apply] comes right before the writer's [Msg_send] to the
   member, and the member counts the push on arrival, as [Eager_update]. *)
let rc_push_apply r i =
  r.report.Svm.Runtime.r_config.Svm.Config.protocol = Svm.Config.Rc
  && i + 1 < Array.length r.events
  &&
  match r.events.(i + 1) with
  | { node; kind = Msg_send { dst; _ }; _ } ->
      node <> r.events.(i).node && dst = r.events.(i).node
  | _ -> false

(* What one event adds to a figure: the node it counts for, and how much. *)
type contribution = run -> int -> event -> (int * float) option

type relation =
  | Traced of contribution  (** the sum of the contributions, per node *)
  | Recovered of contribution
      (** [Traced], but failover recovery also counts here, untraced: so
          checked only on runs without a failover *)
  | Pages of (kind -> int option)  (** a heatmap: one per event, on that page *)
  | Reported of (Svm.Runtime.report -> int)  (** a histogram's count: a report figure *)
  | Untraced  (** no trace kind: recorded once, nothing to compare *)
  | Sampled  (** a gauge reading or a page label, not a count *)

type figure = Counter of (Svm.Stats.counters -> int) | Series | Histogram | Heatmap | Gauge

type row = { name : string; figure : figure; relation : relation }

let one p : relation = Traced (fun _ _ ev -> if p ev.kind then Some (ev.node, 1.) else None)

let sum f : relation =
  Traced (fun _ _ ev -> Option.map (fun v -> (ev.node, float_of_int v)) (f ev.kind))

let data_wait = function Wait_begin { bucket = Wb_data; _ } -> true | _ -> false

let wait_end bucket = function Wait_end { bucket = b; _ } -> b = bucket | _ -> false

let repl_bytes : contribution =
 fun _ _ ev ->
  match ev.kind with
  | Repl_update { bytes; _ } -> Some (ev.node, float_of_int bytes)
  | Repl_inval _ -> Some (ev.node, float_of_int header)
  | _ -> None

(* The table. Where a counter and the series of the same name differ, the
   counter holds more: transport retransmissions, acks and sequence headers
   (messages, protocol_bytes), AURC's combined messages (messages,
   update_bytes), and failover recovery's pulls (repl_updates, repl_bytes)
   and applies (diffs_applied), which are counted but not traced. A flush
   stashed behind a recovery, or already in the master, is traced but not
   counted. Those rows are [Recovered]. *)
let rows =
  let counter name get relation = { name; figure = Counter get; relation } in
  let series name relation = { name; figure = Series; relation } in
  let histogram name relation = { name; figure = Histogram; relation } in
  let heatmap name relation = { name; figure = Heatmap; relation } in
  let gauge name = { name; figure = Gauge; relation = Sampled } in
  let open Svm.Stats in
  [
    (* Access faults: every trapped access, read or write, blocks on a data
       wait, so [faults] is not read_misses + write_faults. *)
    counter "read_misses" (fun c -> c.read_misses) Untraced;
    counter "write_faults" (fun c -> c.write_faults) Untraced;
    series "faults" (one data_wait);
    heatmap "page_faults"
      (Pages (function Wait_begin { bucket = Wb_data; resource; _ } -> Some resource | _ -> None));
    histogram "page_fetch_us" (one (wait_end Wb_data));
    counter "page_fetches"
      (fun c -> c.page_fetches)
      (one (function Page_fetch _ | Full_page_fetch _ -> true | _ -> false));
    counter "batch_prefetches"
      (fun c -> c.batch_prefetches)
      (sum (function Batch_fetch { pages; _ } -> Some (pages - 1) | _ -> None));
    (* Diffs *)
    counter "diffs_created"
      (fun c -> c.diffs_created)
      (one (function Diff_create _ -> true | _ -> false));
    heatmap "page_diffs" (Pages (function Diff_create { page; _ } -> Some page | _ -> None));
    counter "diffs_applied"
      (fun c -> c.diffs_applied)
      (Recovered
         (fun r i ev ->
           match ev.kind with
           | Diff_apply _ when not (rc_push_apply r i) -> Some (ev.node, 1.)
           | Diff_flush _ | Eager_update _ -> Some (ev.node, 1.)
           | _ -> None));
    (* Synchronization *)
    counter "lock_acquires"
      (fun c -> c.lock_acquires)
      (one (function Lock_acquire _ -> true | _ -> false));
    counter "remote_acquires"
      (fun c -> c.remote_acquires)
      (one (function Lock_acquire { remote; _ } -> remote | _ -> false));
    histogram "lock_acquire_us" (one (wait_end Wb_lock));
    counter "barriers"
      (fun c -> c.barriers)
      (one (function Barrier_arrive _ -> true | _ -> false));
    (* A barrier wait that turns into a GC wait is closed unobserved. *)
    histogram "barrier_wait_us"
      (Traced
         (fun _ _ ev ->
           match ev.kind with
           | Wait_end { bucket = Wb_barrier; _ } -> Some (ev.node, 1.)
           | Wait_begin { bucket = Wb_gc; _ } -> Some (ev.node, -1.)
           | _ -> None));
    counter "gc_runs" (fun c -> c.gc_runs) (one (function Gc_start _ -> true | _ -> false));
    counter "home_migrations"
      (fun c -> c.home_migrations)
      (Traced
         (fun _ _ ev ->
           match ev.kind with Home_migration { dst; _ } -> Some (dst, 1.) | _ -> None));
    heatmap "page_home" Sampled;
    (* Messages *)
    counter "messages"
      (fun c -> c.messages)
      (Traced
         (fun r _ ev ->
           match ev.kind with
           | Msg_send { bytes; update; _ } ->
               Some (ev.node, float_of_int (1 + au_combined r ~bytes ~update))
           | Msg_retransmit _ | Msg_ack _ -> Some (ev.node, 1.)
           | _ -> None));
    series "messages" (one (function Msg_send _ -> true | _ -> false));
    counter "update_bytes"
      (fun c -> c.update_bytes)
      (Traced
         (fun r _ ev ->
           match ev.kind with
           | Msg_send { bytes; update; _ } ->
               Some (ev.node, float_of_int (update + (header * au_combined r ~bytes ~update)))
           | _ -> None));
    series "update_bytes" (sum (function Msg_send { update; _ } -> Some update | _ -> None));
    counter "protocol_bytes"
      (fun c -> c.protocol_bytes)
      (Traced
         (fun r _ ev ->
           let seq = Machine.Transport.seq_bytes in
           let headers = if r.report.Svm.Runtime.r_transport = None then 0 else seq in
           match ev.kind with
           | Msg_send { bytes; update; _ } ->
               Some (ev.node, float_of_int (bytes - update + headers))
           | Msg_retransmit { dst; seq = k; _ } ->
               Some (ev.node, float_of_int (Hashtbl.find r.sent (ev.node, dst, k) + seq))
           | Msg_ack _ -> Some (ev.node, float_of_int Machine.Transport.ack_bytes)
           | _ -> None));
    series "protocol_bytes"
      (sum (function Msg_send { bytes; update; _ } -> Some (bytes - update) | _ -> None));
    (* Transport *)
    counter "msg_drops" (fun c -> c.msg_drops) (one (function Msg_drop _ -> true | _ -> false));
    series "drops" (one (function Msg_drop _ -> true | _ -> false));
    counter "msg_retransmits"
      (fun c -> c.msg_retransmits)
      (one (function Msg_retransmit _ -> true | _ -> false));
    series "retransmits" (one (function Msg_retransmit _ -> true | _ -> false));
    histogram "retransmit_backoff_us" (one (function Msg_retransmit _ -> true | _ -> false));
    counter "msg_acks" (fun c -> c.msg_acks) (one (function Msg_ack _ -> true | _ -> false));
    counter "msg_dup_dropped"
      (fun c -> c.msg_dup_dropped)
      (one (function Msg_duplicate_dropped _ -> true | _ -> false));
    counter "msg_gave_up"
      (fun c -> c.msg_gave_up)
      (one (function Watchdog_stall _ -> true | _ -> false));
    counter "msg_peer_dead"
      (fun c -> c.msg_peer_dead)
      (one (function Msg_peer_dead _ -> true | _ -> false));
    (* Replication and failover *)
    counter "repl_updates"
      (fun c -> c.repl_updates)
      (Recovered
         (fun _ _ ev -> match ev.kind with Repl_update _ -> Some (ev.node, 1.) | _ -> None));
    counter "repl_invals"
      (fun c -> c.repl_invals)
      (one (function Repl_inval _ -> true | _ -> false));
    counter "repl_bytes" (fun c -> c.repl_bytes) (Recovered repl_bytes);
    series "repl_bytes" (Traced repl_bytes);
    counter "failovers" (fun c -> c.failovers) (one (function Failover _ -> true | _ -> false));
    histogram "recovery_stall_us"
      (Reported (fun r -> List.length r.Svm.Runtime.r_failover_stalls));
    (* Failure detector *)
    counter "suspicions" (fun c -> c.suspicions) (one (function Suspect _ -> true | _ -> false));
    counter "refutations" (fun c -> c.refutations) (one (function Refute _ -> true | _ -> false));
    counter "fenced_fetches"
      (fun c -> c.fenced_fetches)
      (one (function Fenced_fetch _ -> true | _ -> false));
    (* Serving and sampled state *)
    histogram "op_latency_us"
      (Reported
         (fun r ->
           match r.Svm.Runtime.r_ops with
           | Some o -> Array.length o.Svm.Runtime.or_lats
           | None -> 0));
    gauge "inflight_packets";
    gauge "engine_events";
    gauge "proto_mem_bytes";
  ]

(* Per node, the sum of a contribution over the run's trace, and, given a
   bucket width, per node and time bucket. *)
let traced r f ~nodes ~buckets ~interval =
  let acc = Array.make_matrix nodes buckets 0. in
  Array.iteri
    (fun i ev ->
      match f r i ev with
      | Some (n, v) ->
          let b = max 0 (int_of_float (ev.time /. interval)) in
          acc.(n).(b) <- acc.(n).(b) +. v
      | None -> ())
    r.events;
  acc

let total rows = Array.fold_left (fun acc row -> Array.fold_left ( +. ) acc row) 0. rows

let pages_of r p =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun ev ->
      match p ev.kind with
      | Some page ->
          Hashtbl.replace tbl page (1. +. Option.value ~default:0. (Hashtbl.find_opt tbl page))
      | None -> ())
    r.events;
  List.sort compare (Hashtbl.fold (fun page v acc -> (page, v) :: acc) tbl [])

(* Every series, histogram and heatmap of the run against its trace. *)
let check_recorder ~label r =
  let reg =
    match r.report.Svm.Runtime.r_metrics with
    | Some reg -> reg
    | None -> Alcotest.failf "%s: no metrics" label
  in
  let interval = Obs.Metrics.interval reg and nodes = Obs.Metrics.nnodes reg in
  let buckets = max 1 (Obs.Metrics.buckets reg) in
  let series = Obs.Metrics.series reg in
  let histograms = Obs.Metrics.histograms reg and heatmaps = Obs.Metrics.heatmaps reg in
  let what row = Printf.sprintf "%s: %s" label row.name in
  List.iter
    (fun row ->
      match (row.figure, row.relation) with
      | Series, Traced f ->
          let _, _, got = List.find (fun (n, _, _) -> n = row.name) series in
          let want = traced r f ~nodes ~buckets ~interval in
          Array.iteri
            (fun n want_row ->
              Array.iteri
                (fun b w ->
                  let g = if b < Array.length got.(n) then got.(n).(b) else 0. in
                  if g <> w then
                    Alcotest.failf "%s: node %d bucket %d: series %g, trace %g" (what row) n b g w)
                want_row)
            want
      | Histogram, (Traced _ | Reported _) ->
          let count =
            (Obs.Metrics.histogram_stats (List.assoc row.name histograms)).Obs.Metrics.hs_count
          in
          let want =
            match row.relation with
            | Traced f -> int_of_float (total (traced r f ~nodes ~buckets:1 ~interval:infinity))
            | Reported g -> g r.report
            | Pages _ | Recovered _ | Untraced | Sampled -> assert false
          in
          check Alcotest.int (what row) want count
      | Heatmap, Pages p ->
          check
            Alcotest.(list (pair int (float 0.)))
            (what row) (pages_of r p)
            (Obs.Metrics.heatmap_entries (List.assoc row.name heatmaps))
      | _ -> ())
    rows

(* Every counter of the run against its trace, per node. *)
let check_counters ~label r =
  let nodes = Array.length r.report.Svm.Runtime.r_nodes in
  let failover =
    Array.exists (fun ev -> match ev.kind with Failover _ -> true | _ -> false) r.events
  in
  let compare row get f =
    let want = traced r f ~nodes ~buckets:1 ~interval:infinity in
    Array.iteri
      (fun n (nr : Svm.Runtime.node_report) ->
        check Alcotest.int
          (Printf.sprintf "%s: %s at node %d" label row.name n)
          (int_of_float want.(n).(0))
          (get nr.Svm.Runtime.nr_counters))
      r.report.Svm.Runtime.r_nodes
  in
  List.iter
    (fun row ->
      match (row.figure, row.relation) with
      | Counter get, Traced f -> compare row get f
      | Counter get, Recovered f when not failover -> compare row get f
      | _ -> ())
    rows

let with_spans_and_metrics (cfg : Svm.Config.t) =
  {
    cfg with
    Svm.Config.trace_spans = true;
    metrics_interval =
      (if cfg.Svm.Config.metrics_interval > 0. then cfg.Svm.Config.metrics_interval else 1000.);
  }

let test_identity_cells () =
  List.iter
    (fun protocol ->
      List.iter
        (fun name ->
          match Apps.Registry.find name Apps.Registry.Test with
          | None -> ()
          | Some app ->
              let cfg = with_spans_and_metrics (Svm.Config.make ~nprocs:4 protocol) in
              check_recorder
                ~label:(Printf.sprintf "%s %s" (Svm.Config.protocol_name protocol) name)
                (observe cfg (app.Apps.Registry.body ~verify:true)))
        Apps.Registry.names)
    Svm.Config.extended_protocols

let test_report_cases () =
  List.iter
    (fun args ->
      let o = Report_cases.parse args in
      let cfg = with_spans_and_metrics o.Harness.Cli.cfg in
      check_recorder ~label:(String.concat " " args)
        (observe cfg
           (o.Harness.Cli.app.Apps.Registry.body ~verify:o.Harness.Cli.common.Harness.Cli.verify)))
    Report_cases.argvs

(* The configurations a random program's counters are checked under: each
   protocol fault-free (with a GC threshold low enough to collect) and with
   drops and duplicates; then, on 16-word pages in blocks of one home (so
   the program spans many pages and homes, and misses batch), with
   replicas, and with a node paused long enough for the heartbeat detector
   to suspect it, depose it and fail its pages over. *)
let configs protocol (p : Test_random.program) seed =
  let make =
    Svm.Config.make ~nprocs:p.Test_random.nprocs ~trace_spans:true ~metrics_interval:100.
  in
  let small = make ~page_words:16 ~home_policy:Svm.Config.Block ~fault_batch:4 in
  let chaos faults = { Machine.Chaos.none with Machine.Chaos.fault_seed = seed; faults } in
  let pause = Machine.Chaos.Pause { node = 1; from_ = 200.; until = 20000. } in
  let repl_scheme = if seed mod 2 = 0 then Svm.Config.Inval else Backup in
  [
    ("fault-free", make ~gc_threshold_bytes:2048 protocol);
    ("drops", make ~chaos:{ (chaos []) with drop_rate = 0.05; dup_rate = 0.05 } protocol);
  ]
  @
  match protocol with
  | Svm.Config.Lrc | Olrc | Hlrc | Ohlrc ->
      ("replicas", small ~replicas:2 ~repl_scheme protocol)
      ::
      (if p.Test_random.nprocs < 3 then []
       else
         [
           ( "paused",
             small ~replicas:2 ~repl_scheme ~detector:Svm.Config.Heartbeat
               ~chaos:(chaos [ pause ]) protocol );
         ])
  | Aurc | Rc -> [ ("small pages", small protocol) ]

let prop_counters protocol =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "counters and series match the trace under %s"
         (Svm.Config.protocol_name protocol))
    ~count:15
    (QCheck.make QCheck.Gen.(pair Test_random.gen_program small_nat))
    (fun (program, seed) ->
      List.iter
        (fun (label, cfg) ->
          let label = Printf.sprintf "%s %s" (Svm.Config.protocol_name protocol) label in
          let r = observe cfg (Test_random.body ~label program) in
          check_counters ~label r;
          check_recorder ~label r)
        (configs protocol program seed);
      true)

(* Every counter some report carries and every registered instrument has a
   row, and no row names anything else. *)
let test_table_complete () =
  let keys = function Some (Obs.Json.Obj fields) -> List.map fst fields | _ -> [] in
  let reported =
    List.concat_map
      (fun args ->
        let nodes = Obs.Json.member "nodes" (Report_cases.report args) in
        List.concat_map
          (fun node -> keys (Obs.Json.member "counters" node))
          (Option.value ~default:[] (Option.bind nodes Obs.Json.to_list)))
      Report_cases.argvs
  in
  let names p = List.sort_uniq compare (List.filter_map p rows) in
  check
    Alcotest.(list string)
    "counters" (List.sort_uniq compare reported)
    (names (fun r -> match r.figure with Counter _ -> Some r.name | _ -> None));
  let reg = Obs.Metrics.create ~interval:1. ~nnodes:1 in
  Svm.System.install_metrics (Svm.System.create (Svm.Config.make ~nprocs:1 Svm.Config.Hlrc)) reg;
  let registered =
    List.map (fun (n, _, _) -> n) (Obs.Metrics.series reg)
    @ List.map fst (Obs.Metrics.histograms reg)
    @ List.map fst (Obs.Metrics.heatmaps reg)
  in
  check
    Alcotest.(list string)
    "instruments" (List.sort_uniq compare registered)
    (names (fun r -> match r.figure with Counter _ -> None | _ -> Some r.name))

let suite =
  [
    ("the table names every counter and instrument", `Quick, test_table_complete);
    ("series match the trace on the identity cells", `Quick, test_identity_cells);
    ("series match the trace on the report cases", `Quick, test_report_cases);
  ]
  @ List.map
      (fun p -> QCheck_alcotest.to_alcotest (prop_counters p))
      Svm.Config.extended_protocols
