let schema_version = 1

open Obs.Schema

type run_meta = { rm_app : string; rm_scale : string }

(* What the optional groups hang on, read off the run's config. *)
let batching cfg = cfg.Config.fault_batch > 1

let chaos = Config.chaos_enabled

let repl cfg = cfg.Config.replicas > 1

let detect cfg = cfg.Config.detector = Config.Heartbeat

(* The availability group covers scheduled kills and heartbeat runs alike:
   a fallible detector can depose (and fail over) nodes that were never
   killed. *)
let kill cfg = Machine.Chaos.kills cfg.Config.chaos <> [] || detect cfg

(* [Some v] when [p v] holds: the projection of a [given]-style block. *)
let only p v = if p v then Some v else None

let protocol cfg = String.lowercase_ascii (Config.protocol_name cfg.Config.protocol)

let digest r = Printf.sprintf "%016Lx" r.Runtime.r_mem_digest

let costs : Machine.Costs.t t =
  Machine.Costs.
    [
      field "message_latency" num (fun c -> c.message_latency);
      field "byte_transfer" num (fun c -> c.byte_transfer);
      field "per_hop" num (fun c -> c.per_hop);
      field "receive_interrupt" num (fun c -> c.receive_interrupt);
      field "twin_copy" num (fun c -> c.twin_copy);
      field "diff_create_base" num (fun c -> c.diff_create_base);
      field "diff_create_per_word" num (fun c -> c.diff_create_per_word);
      field "diff_apply_base" num (fun c -> c.diff_apply_base);
      field "diff_apply_per_word" num (fun c -> c.diff_apply_per_word);
      field "page_fault" num (fun c -> c.page_fault);
      field "page_invalidate" num (fun c -> c.page_invalidate);
      field "page_protect" num (fun c -> c.page_protect);
      field "mem_access" num (fun c -> c.mem_access);
      field "lock_service" num (fun c -> c.lock_service);
      field "barrier_service" num (fun c -> c.barrier_service);
      field "write_notice_handle" num (fun c -> c.write_notice_handle);
      field "coproc_dispatch" num (fun c -> c.coproc_dispatch);
    ]

(* Each scheduled fault in its one spelling ({!Machine.Chaos.to_string}),
   which the validator parses back. *)
let fault =
  refine str (function
    | Obs.Json.String s ->
        Result.fold ~ok:(Fun.const None) ~error:Option.some (Machine.Chaos.of_string s)
    | _ -> None)

let chaos_config : Machine.Chaos.params t =
  Machine.Chaos.
    [
      field "drop_rate" num (fun ch -> ch.drop_rate);
      field "dup_rate" num (fun ch -> ch.dup_rate);
      field "jitter" num (fun ch -> ch.jitter);
      field "straggler" num (fun ch -> ch.straggler);
      field "fault_seed" int (fun ch -> ch.fault_seed);
      given
        (fun ch -> ch.faults <> [])
        [
          field "faults" (list fault) (fun ch -> List.map to_string ch.faults);
          field "detect_delay" num (fun ch -> ch.detect_delay);
        ];
    ]

let config : Config.t t =
  Config.
    [
      field "protocol" (enum protocol_strings) protocol;
      field "nprocs" (at_least 1) (fun cfg -> cfg.nprocs);
      field "page_words" int (fun cfg -> cfg.page_words);
      field "home_policy" str (fun cfg -> home_policy_name cfg.home_policy);
      field "gc_threshold_bytes" int (fun cfg -> cfg.gc_threshold_bytes);
      field "coproc_locks" bool (fun cfg -> cfg.coproc_locks);
      field "au_combine_words" int (fun _ -> Intervals.au_combine_words);
      field "home_migration" bool (fun cfg -> cfg.home_migration);
      field "costs" (obj costs) (fun cfg -> cfg.costs);
      given batching [ field "fault_batch" int (fun cfg -> cfg.fault_batch) ];
      opt "replication"
        (obj
           [
             field "replicas" (at_least 2) (fun cfg -> cfg.replicas);
             field "scheme" (enum repl_scheme_strings) (fun cfg ->
                 repl_scheme_name cfg.repl_scheme);
           ])
        (only repl);
      (* A kill-only schedule does not enable message chaos (no transport),
         but its parameters still belong in the report. *)
      opt "chaos" (obj chaos_config) (fun cfg ->
          if chaos cfg || Machine.Chaos.kills cfg.chaos <> [] then Some cfg.chaos else None);
      opt "detector"
        (obj
           [
             field "kind" (enum detector_strings) (fun cfg -> detector_name cfg.detector);
             field "hb_interval_us" num (fun cfg -> cfg.hb_interval);
             field "hb_timeout_us" num hb_timeout_effective;
           ])
        (only detect);
    ]

let breakdown : Stats.breakdown t =
  Stats.
    [
      field "compute" num (fun b -> b.compute);
      field "data" num (fun b -> b.data);
      field "lock" num (fun b -> b.lock);
      field "barrier" num (fun b -> b.barrier);
      field "protocol" num (fun b -> b.protocol);
      field "gc" num (fun b -> b.gc);
    ]

(* Counter groups, shared by the per-node counters and the run totals. *)
let base_counters =
  Stats.
    [
      ("read_misses", fun c -> c.read_misses);
      ("write_faults", fun c -> c.write_faults);
      ("diffs_created", fun c -> c.diffs_created);
      ("diffs_applied", fun c -> c.diffs_applied);
      ("lock_acquires", fun c -> c.lock_acquires);
      ("remote_acquires", fun c -> c.remote_acquires);
      ("barriers", fun c -> c.barriers);
      ("messages", fun c -> c.messages);
      ("update_bytes", fun c -> c.update_bytes);
      ("protocol_bytes", fun c -> c.protocol_bytes);
      ("page_fetches", fun c -> c.page_fetches);
      ("gc_runs", fun c -> c.gc_runs);
      ("home_migrations", fun c -> c.home_migrations);
    ]

let transport_counters =
  Stats.
    [
      ("msg_drops", fun c -> c.msg_drops);
      ("msg_retransmits", fun c -> c.msg_retransmits);
      ("msg_acks", fun c -> c.msg_acks);
      ("msg_dup_dropped", fun c -> c.msg_dup_dropped);
    ]

let gave_up = ("msg_gave_up", fun c -> c.Stats.msg_gave_up)

let repl_counters =
  Stats.
    [
      ("repl_updates", fun c -> c.repl_updates);
      ("repl_invals", fun c -> c.repl_invals);
      ("repl_bytes", fun c -> c.repl_bytes);
    ]

let kill_counters =
  Stats.[ ("failovers", fun c -> c.failovers); ("msg_peer_dead", fun c -> c.msg_peer_dead) ]

let detect_counters =
  Stats.
    [
      ("suspicions", fun c -> c.suspicions);
      ("refutations", fun c -> c.refutations);
      ("fenced_fetches", fun c -> c.fenced_fetches);
    ]

let per_node group = List.map (fun (name, get) -> field name int (fun (_, c) -> get c)) group

let summed group = List.map (fun (name, get) -> field name int (fun r -> Runtime.sum r get)) group

let on_config p (cfg, _) = p cfg

let counters : (Config.t * Stats.counters) t =
  per_node base_counters
  @ [
      given (on_config batching)
        (per_node [ ("batch_prefetches", fun c -> c.Stats.batch_prefetches) ]);
      given (on_config chaos) (per_node (transport_counters @ [ gave_up ]));
      given (on_config repl) (per_node repl_counters);
      given (on_config kill) (per_node kill_counters);
      given (on_config detect) (per_node detect_counters);
    ]

let node : (Config.t * Runtime.node_report) t =
  Runtime.
    [
      field "id" int (fun (_, n) -> n.nr_id);
      field "elapsed_us" num (fun (_, n) -> n.nr_elapsed);
      field "breakdown" (obj breakdown) (fun (_, n) -> n.nr_breakdown);
      field "counters" (obj counters) (fun (cfg, n) -> (cfg, n.nr_counters));
      field "mem_peak" int (fun (_, n) -> n.nr_mem_peak);
      field "mem_end" int (fun (_, n) -> n.nr_mem_end);
      field "epochs" (list (obj breakdown)) (fun (_, n) -> n.nr_epochs);
    ]

(* [or_lats] and [r_failover_stalls] are sorted ascending, as
   {!Stats.quantile} (nearest-rank) requires. Percentiles of an empty set
   are undefined, not 0: they are absent, so a genuine 0 us value stays
   distinguishable. *)
let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let quantile p xs = Option.get (Stats.quantile xs p)

let last xs = xs.(Array.length xs - 1)

(* The value is the run's report and its op log. *)
let serving : (Runtime.report * Runtime.ops_report) t =
  let lats f (_, ops) = f ops.Runtime.or_lats in
  Runtime.
    [
      field "ops" int (lats Array.length);
      field "gets" int (fun (_, ops) -> ops.or_gets);
      field "puts" int (fun (_, ops) -> ops.or_puts);
      field "txns" int (fun (_, ops) -> ops.or_txns);
      field "throughput_ops_per_s" num (fun (r, _) -> throughput r);
      iff (positive "ops")
        [
          field "lat_mean_us" num (lats mean);
          field "lat_p50_us" num (lats (quantile 0.5));
          field "lat_p99_us" num (lats (quantile 0.99));
          field "lat_max_us" num (lats last);
        ];
    ]

let availability : Runtime.report t =
  let stalls f r = f (Array.of_list r.Runtime.r_failover_stalls) in
  summed (kill_counters @ [ gave_up ])
  @ [
      field "recovery_stalls" int (stalls Array.length);
      iff (positive "recovery_stalls")
        [
          field "stall_mean_us" num (stalls mean);
          field "stall_p99_us" num (stalls (quantile 0.99));
          field "stall_max_us" num (stalls last);
        ];
      field "mem_digest" str digest;
      given (fun r -> detect r.Runtime.r_config) (summed detect_counters);
    ]

let transport get r = match r.Runtime.r_transport with Some t -> get t | None -> 0

let chaos_totals : Runtime.report t =
  summed transport_counters
  @ [
      field "mem_digest" str digest;
      field "transport_inflight" int (transport (fun t -> t.Runtime.tr_inflight));
      field "transport_gave_up" int (transport (fun t -> t.Runtime.tr_gave_up));
    ]

let totals : Runtime.report t =
  let on_run p r = p r.Runtime.r_config in
  Runtime.
    [
      field "messages" int total_messages;
      field "update_bytes" int total_update_bytes;
      field "protocol_bytes" int total_protocol_bytes;
      field "mem_peak" int max_mem_peak;
      field "mean_compute_us" num mean_compute;
      opt "serving" (obj serving) (fun r -> Option.map (fun ops -> (r, ops)) r.r_ops);
      opt "replication" (obj (summed repl_counters)) (only (on_run repl));
      opt "availability" (obj availability) (only (on_run kill));
      opt "chaos" (obj chaos_totals) (only (on_run chaos));
    ]

(* Run metadata: what the CLI was asked to do, so an archived report is
   self-describing without its invocation. The driver-level facts (app
   name, scale) cannot be derived from the Config; the rest duplicates the
   CLI-relevant Config fields for one-stop reading. *)
let meta : (run_meta * Config.t) t =
  Config.
    [
      field "app" str (fun (m, _) -> m.rm_app);
      field "scale" str (fun (m, _) -> m.rm_scale);
      field "protocol" (enum protocol_strings) (fun (_, cfg) -> protocol cfg);
      field "nprocs" (at_least 1) (fun (_, cfg) -> cfg.nprocs);
      field "fault_seed" int (fun (_, cfg) -> cfg.chaos.Machine.Chaos.fault_seed);
      field "fault_batch" int (fun (_, cfg) -> cfg.fault_batch);
      field "replicas" int (fun (_, cfg) -> cfg.replicas);
      field "repl_scheme" (enum repl_scheme_strings) (fun (_, cfg) ->
          repl_scheme_name cfg.repl_scheme);
      field "metrics_interval_us" num (fun (_, cfg) -> cfg.metrics_interval);
    ]

let trace : Obs.Trace.sink t =
  Obs.Trace.
    [
      field "events" int length;
      field "dropped" int dropped;
      iff (positive "dropped") [ field "dropped_by_kind" (map int) dropped_by_kind ];
      field "capacity" int capacity;
    ]

type doc = {
  report : Runtime.report;
  meta : run_meta option;
  critical_path : Obs.Critical_path.t option;
  sink : Obs.Trace.sink option;
}

let document : doc t =
  [
    const "schema_version" schema_version;
    opt "meta" (obj meta) (fun d -> Option.map (fun m -> (m, d.report.r_config)) d.meta);
    field "config" (obj config) (fun d -> d.report.r_config);
    field "elapsed_us" num (fun d -> d.report.r_elapsed);
    field "shared_bytes" int (fun d -> d.report.r_shared_bytes);
    field "events" int (fun d -> d.report.r_events);
    field "totals" (obj totals) (fun d -> d.report);
    field "nodes"
      (list (obj node))
      (fun d -> Array.to_list (Array.map (fun n -> (d.report.r_config, n)) d.report.r_nodes));
    rule (fun j ->
        let nodes = List.length (list_at "nodes" j) in
        match Option.bind (Obs.Json.member "config" j) (int_at "nprocs") with
        | Some n when nodes <> n -> Some (Printf.sprintf "%d nodes but config.nprocs = %d" nodes n)
        | _ -> None);
    opt "timeline" (obj Obs.Metrics.schema) (fun d -> d.report.r_metrics);
    opt "trace" (obj trace) (fun d -> d.sink);
    opt "critical_path" (obj Obs.Critical_path.schema) (fun d -> d.critical_path);
  ]

let encode ?meta ?critical_path ?trace report =
  Obs.Schema.encode document { report; meta; critical_path; sink = trace }

let validate j = Obs.Schema.validate document ~path:"report" j
