(* The benchmark's three workloads and the simulated figures one run yields.

   sor-lrc16 is the access-bound regime: tens of millions of simulated
   loads and stores through [Svm.Api] against a few thousand messages, and
   dense LRC diffs. kv-mixed and kv-read are the message- and event-bound
   serving regime, offered open-loop below saturation (their capacity is
   measured by [Saturated] runs and recorded in BENCHMARK.json). kv-read
   writes nothing, so it makes no twins and no diffs: it is the control
   for write-detection changes. *)

type t = Sor_lrc16 | Kv_mixed | Kv_read

let all = [ Sor_lrc16; Kv_mixed; Kv_read ]

let name = function Sor_lrc16 -> "sor-lrc16" | Kv_mixed -> "kv-mixed" | Kv_read -> "kv-read"

let of_name s = List.find_opt (fun w -> name w = s) all

(* [Full] is the measured run, [Empty] the zero-work set-up run of the same
   configuration (0 iterations / 0 ops), [Saturated] the capacity run: every
   op arrives at once, so throughput is what the store completes flat out. *)
type size = Full | Empty | Saturated

let traffic w ~seed =
  let base =
    {
      Traffic.ops = 200_000;
      rate = 1_500.;
      keys = 65_536;
      theta = 0.9;
      write_ratio = 0.2;
      txn_ratio = 0.1;
      seed;
    }
  in
  match w with
  | Kv_mixed -> Some base
  | Kv_read -> Some { base with ops = 600_000; rate = 3_000.; write_ratio = 0.; txn_ratio = 0. }
  | Sor_lrc16 -> None

(* Operations the measured run must complete (0 for SOR, which has no
   request stream). *)
let planned_ops w = match traffic w ~seed:0 with Some tp -> tp.Traffic.ops | None -> 0

let offered_rate w = match traffic w ~seed:0 with Some tp -> tp.Traffic.rate | None -> 0.

let config = function
  | Sor_lrc16 -> Svm.Config.make ~nprocs:16 Svm.Config.Lrc
  | Kv_mixed | Kv_read -> Svm.Config.make ~nprocs:8 Svm.Config.Hlrc

let body w ~seed ~size ~verify =
  match traffic w ~seed with
  | None ->
      let iters = if size = Empty then 0 else 12 in
      Apps.Sor.body ~verify
        { Apps.Sor.rows = 1024; cols = 1024; iters; zero_interior = false; flop_us = 6.; seed }
  | Some tp ->
      let tp =
        match size with
        | Full -> tp
        | Empty -> { tp with Traffic.ops = 0 }
        | Saturated -> { tp with Traffic.rate = 1e12 }
      in
      Apps.Kvstore.body ~verify { Apps.Kvstore.buckets = 256; op_us = 0.5; traffic = tp }

let run w ~seed ~size ~verify = Svm.Runtime.run (config w) (body w ~seed ~size ~verify)

let sum_counters r f =
  Array.fold_left (fun acc n -> acc + f n.Svm.Runtime.nr_counters) 0 r.Svm.Runtime.r_nodes

let mean_breakdown r f =
  let nodes = r.Svm.Runtime.r_nodes in
  Array.fold_left (fun acc n -> acc +. f n.Svm.Runtime.nr_breakdown) 0. nodes
  /. float_of_int (Array.length nodes)
  /. 1e6

let mb bytes = float_of_int bytes /. 1e6

(* Every simulated figure of a report, by metric name. All are exact for a
   seed; a host-only change must leave each one identical. Simulated times
   are in simulated seconds or microseconds, never host time. *)
let sim_metrics r =
  let open Svm.Stats in
  let c f = float_of_int (sum_counters r f) in
  let serving =
    match r.Svm.Runtime.r_ops with
    | None -> []
    | Some ops ->
        let lats = ops.Svm.Runtime.or_lats in
        let n = Array.length lats in
        let q p = Option.value (quantile lats p) ~default:nan in
        [
          ("ops_done", float_of_int (ops.or_gets + ops.or_puts + ops.or_txns));
          ("sim_ops_per_s", float_of_int n /. (r.r_elapsed /. 1e6));
          ("sim_op_samples", float_of_int n);
          ("sim_op_p50_us", q 0.5);
          ("sim_op_p99_us", q 0.99);
          ("sim_op_p999_us", q 0.999);
        ]
  in
  [
    ("sim_elapsed_s", r.r_elapsed /. 1e6);
    ("sim_messages", float_of_int (Svm.Runtime.total_messages r));
    ( "sim_traffic_mb",
      mb (Svm.Runtime.total_update_bytes r + Svm.Runtime.total_protocol_bytes r) );
    ("sim.events", float_of_int r.r_events);
    ("faults.read_misses", c (fun k -> k.read_misses));
    ("faults.write_faults", c (fun k -> k.write_faults));
    ("faults.page_fetches", c (fun k -> k.page_fetches));
    ("mem.diffs_created", c (fun k -> k.diffs_created));
    ("mem.diffs_applied", c (fun k -> k.diffs_applied));
    ("mem.update_mb", mb (Svm.Runtime.total_update_bytes r));
    ("sync.lock_acquires", c (fun k -> k.lock_acquires));
    ("sync.remote_acquires", c (fun k -> k.remote_acquires));
    ("sync.barriers", c (fun k -> k.barriers));
    ("machine.protocol_mb", mb (Svm.Runtime.total_protocol_bytes r));
    ("svm_gc.runs", c (fun k -> k.gc_runs));
    ("breakdown.compute_s", mean_breakdown r (fun b -> b.compute));
    ("breakdown.data_s", mean_breakdown r (fun b -> b.data));
    ("breakdown.lock_s", mean_breakdown r (fun b -> b.lock));
    ("breakdown.barrier_s", mean_breakdown r (fun b -> b.barrier));
    ("breakdown.protocol_s", mean_breakdown r (fun b -> b.protocol));
    ("breakdown.gc_s", mean_breakdown r (fun b -> b.gc));
  ]
  @ serving
