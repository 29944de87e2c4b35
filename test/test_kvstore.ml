(* The serving workload: linearizable get/put under every protocol,
   transaction atomicity under chaos, and the Zipfian sampler behind the
   open-loop traffic plan. *)

let check = Alcotest.check

let small =
  (* Small enough to sweep all protocols in milliseconds, big enough that
     every op kind occurs and buckets collide across nodes. *)
  {
    Apps.Kvstore.default with
    Apps.Kvstore.buckets = 16;
    traffic =
      {
        Apps.Kvstore.default.Apps.Kvstore.traffic with
        Traffic.ops = 400;
        keys = 256;
        rate = 200_000.;
      };
  }

let run_kvstore ?(chaos = Machine.Chaos.none) ?(verify = true) ~nprocs proto p =
  let app = Apps.Registry.kvstore_of_params p in
  Svm.Runtime.run (Svm.Config.make ~nprocs ~chaos proto) (app.Apps.Registry.body ~verify)

(* --- correctness under every protocol ------------------------------- *)

let test_all_protocols () =
  (* verify:true replays the sequential reference inside the run; on top of
     that the final digest must agree across every protocol and machine
     size, because the op multiset fully determines the memory. *)
  let digests =
    List.concat_map
      (fun proto ->
        List.map
          (fun nprocs ->
            try (run_kvstore ~nprocs proto small).Svm.Runtime.r_mem_digest
            with e ->
              Alcotest.failf "kvstore under %s at P=%d: %s"
                (Svm.Config.protocol_name proto) nprocs (Printexc.to_string e))
          [ 2; 4 ])
      Svm.Config.all_protocols
  in
  match digests with
  | [] -> Alcotest.fail "no protocols"
  | d0 :: rest ->
      List.iteri
        (fun i d ->
          check Alcotest.int64 (Printf.sprintf "digest %d matches protocol 0" (i + 1)) d0 d)
        rest

let test_reference_conserves_transfers () =
  let _counts, deltas = Apps.Kvstore.reference small in
  let sum = Array.fold_left ( + ) 0 deltas in
  check Alcotest.int "transfer deltas conserve" 0 sum

(* --- transaction atomicity under chaos ------------------------------ *)

let test_txn_atomicity_under_chaos () =
  (* Drops, duplicates, jitter and stragglers reorder everything the
     transport allows; a torn transaction (one side applied) would break
     delta conservation and diverge from the fault-free digest. *)
  let chaos =
    {
      Machine.Chaos.none with
      Machine.Chaos.drop_rate = 0.02;
      dup_rate = 0.01;
      jitter = 5.0;
      straggler = 1.25;
      fault_seed = 7;
    }
  in
  List.iter
    (fun proto ->
      let clean = run_kvstore ~nprocs:4 proto small in
      let chaotic = run_kvstore ~chaos ~nprocs:4 proto small in
      check Alcotest.int64
        (Printf.sprintf "%s: chaos digest matches fault-free"
           (Svm.Config.protocol_name proto))
        clean.Svm.Runtime.r_mem_digest chaotic.Svm.Runtime.r_mem_digest)
    Svm.Config.all_protocols

(* --- serving report ------------------------------------------------- *)

let test_ops_report () =
  let r = run_kvstore ~nprocs:4 Svm.Config.Hlrc small in
  match r.Svm.Runtime.r_ops with
  | None -> Alcotest.fail "kvstore run must carry an ops report"
  | Some o ->
      let n = o.Svm.Runtime.or_gets + o.Svm.Runtime.or_puts + o.Svm.Runtime.or_txns in
      check Alcotest.int "every planned op completed" small.Apps.Kvstore.traffic.Traffic.ops n;
      check Alcotest.int "one latency per op" n (Array.length o.Svm.Runtime.or_lats);
      let sorted = ref true in
      Array.iteri
        (fun i v -> if i > 0 && v < o.Svm.Runtime.or_lats.(i - 1) then sorted := false)
        o.Svm.Runtime.or_lats;
      check Alcotest.bool "latencies sorted ascending" true !sorted;
      check Alcotest.bool "latencies non-negative" true
        (Array.for_all (fun v -> v >= 0.) o.Svm.Runtime.or_lats)

let test_report_schema_accepts_serving_block () =
  let r = run_kvstore ~nprocs:4 Svm.Config.Hlrc small in
  match Svm.Report_json.validate (Svm.Report_json.encode r) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "kvstore report fails schema validation: %s" msg

let test_scientific_apps_have_no_ops_report () =
  let app = Apps.Registry.lu Apps.Registry.Test in
  let r =
    Svm.Runtime.run (Svm.Config.make ~nprocs:2 Svm.Config.Hlrc)
      (app.Apps.Registry.body ~verify:false)
  in
  check Alcotest.bool "no serving block for lu" true (r.Svm.Runtime.r_ops = None)

(* --- offered load against capacity ---------------------------------- *)

let test_throughput_tracks_offered_load () =
  (* Offering every op at once finds the store's capacity C. Below the
     knee the store serves what is offered; past it, C. *)
  let served rate =
    let p = Apps.Registry.kvstore_params Apps.Registry.Test in
    let p = { p with Apps.Kvstore.traffic = { p.Apps.Kvstore.traffic with Traffic.rate } } in
    let r = run_kvstore ~nprocs:4 Svm.Config.Hlrc p in
    match r.Svm.Runtime.r_ops with
    | None -> Alcotest.fail "kvstore run carries no ops report"
    | Some o ->
        float_of_int (Array.length o.Svm.Runtime.or_lats) /. (r.Svm.Runtime.r_elapsed /. 1e6)
  in
  let capacity = served 1e12 in
  let within what ~want got =
    if Float.abs (got -. want) > 0.02 *. want then
      Alcotest.failf "%s: served %.0f ops/s, want %.0f within 2%% (capacity %.0f)" what got want
        capacity
  in
  within "offered 0.5 C" ~want:(0.5 *. capacity) (served (0.5 *. capacity));
  within "offered 1.1 C" ~want:capacity (served (1.1 *. capacity))

(* --- traffic plan --------------------------------------------------- *)

let test_traffic_partition_covers_plan () =
  (* The per-node slices are a partition of the global plan: same ops, same
     arrival times, nothing dropped or duplicated. *)
  let tp = { small.Apps.Kvstore.traffic with Traffic.ops = 500 } in
  let nodes = 3 in
  let seen = Array.make tp.Traffic.ops false in
  let z = Sim.Rng.zipf_create ~n:tp.Traffic.keys ~theta:tp.Traffic.theta in
  for node = 0 to nodes - 1 do
    let last = ref neg_infinity in
    Traffic.iter_node tp (Lazy.from_val z) ~node ~nodes (fun ~index ~at_us op ->
        check Alcotest.bool "index in range" true (index >= 0 && index < tp.Traffic.ops);
        check Alcotest.bool "not seen twice" false seen.(index);
        seen.(index) <- true;
        check Alcotest.int "node owns its residue" node (index mod nodes);
        check (Alcotest.float 1e-9) "arrival time matches the global clock"
          (Traffic.arrival_us tp index) at_us;
        check Alcotest.bool "arrivals non-decreasing per node" true (at_us >= !last);
        last := at_us;
        if op <> Traffic.op_at tp z index then
          Alcotest.failf "op %d differs from the global plan" index)
  done;
  check Alcotest.bool "every op covered" true (Array.for_all Fun.id seen)

(* --- Zipfian sampler ------------------------------------------------ *)

let test_zipf_deterministic () =
  let z = Sim.Rng.zipf_create ~n:1000 ~theta:0.9 in
  let stream seed =
    let rng = Sim.Rng.create ~seed in
    Array.init 1000 (fun _ -> Sim.Rng.zipf rng z)
  in
  check (Alcotest.array Alcotest.int) "same seed, same stream" (stream 5) (stream 5);
  check Alcotest.bool "different seeds diverge" false (stream 5 = stream 6)

let test_zipf_uniform_when_theta_zero () =
  let n = 8 in
  let z = Sim.Rng.zipf_create ~n ~theta:0.0 in
  let rng = Sim.Rng.create ~seed:3 in
  let counts = Array.make n 0 in
  let draws = 80_000 in
  for _ = 1 to draws do
    let k = Sim.Rng.zipf rng z in
    counts.(k) <- counts.(k) + 1
  done;
  let expected = draws / n in
  Array.iteri
    (fun k c ->
      check Alcotest.bool
        (Printf.sprintf "key %d count %d within 20%% of uniform" k c)
        true
        (abs (c - expected) < expected / 5))
    counts

let test_zipf_invalid_args () =
  Alcotest.check_raises "n = 0 rejected" (Invalid_argument "Rng.zipf_create: n must be >= 1")
    (fun () -> ignore (Sim.Rng.zipf_create ~n:0 ~theta:0.5));
  Alcotest.check_raises "theta = 1 rejected"
    (Invalid_argument "Rng.zipf_create: theta must be in [0, 1)") (fun () ->
      ignore (Sim.Rng.zipf_create ~n:10 ~theta:1.0))

(* Skew actually skews: for any (n, theta, seed) with real skew, low ranks
   are drawn more often than high ranks, and every draw is in bounds. *)
let prop_zipf_rank_frequency =
  QCheck.Test.make ~name:"zipf favors low ranks and stays in bounds" ~count:50
    QCheck.(
      triple (int_range 10 1000) (float_range 0.5 0.98) (int_range 0 10_000))
    (fun (n, theta, seed) ->
      let z = Sim.Rng.zipf_create ~n ~theta in
      let rng = Sim.Rng.create ~seed in
      let counts = Array.make n 0 in
      let draws = 20_000 in
      for _ = 1 to draws do
        let k = Sim.Rng.zipf rng z in
        if k < 0 || k >= n then QCheck.Test.fail_reportf "draw %d out of [0,%d)" k n;
        counts.(k) <- counts.(k) + 1
      done;
      let half = n / 2 in
      let low = Array.fold_left ( + ) 0 (Array.sub counts 0 half) in
      let high = Array.fold_left ( + ) 0 (Array.sub counts half (n - half)) in
      (* p(rank 0)/p(rank n-1) = n^theta >= 10^0.5, so the low half must
         dominate by a wide, fluctuation-proof margin. *)
      low > high
      && counts.(0) > counts.(n - 1))

let suite =
  [
    ("kvstore verifies and agrees under all protocols", `Slow, test_all_protocols);
    ("reference conserves transfers", `Quick, test_reference_conserves_transfers);
    ("txn atomicity under chaos", `Slow, test_txn_atomicity_under_chaos);
    ("ops report counts and sorted latencies", `Quick, test_ops_report);
    ("report schema accepts the serving block", `Quick, test_report_schema_accepts_serving_block);
    ("scientific kernels carry no ops report", `Quick, test_scientific_apps_have_no_ops_report);
    ("throughput tracks offered load below the knee", `Quick, test_throughput_tracks_offered_load);
    ("traffic plan partitions exactly", `Quick, test_traffic_partition_covers_plan);
    ("zipf is deterministic", `Quick, test_zipf_deterministic);
    ("zipf theta=0 is uniform", `Quick, test_zipf_uniform_when_theta_zero);
    ("zipf rejects invalid parameters", `Quick, test_zipf_invalid_args);
    QCheck_alcotest.to_alcotest prop_zipf_rank_frequency;
  ]
