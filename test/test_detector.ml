(* The heartbeat failure detector: suspicion, quorum depose, refutation,
   and rejoin.

   Five properties pin the detector down. (1) Fault-free equivalence:
   with no faults scheduled, selecting [--detector heartbeat] may add
   pings to the wire but must not change what the program computes — the
   memory digest and verified results equal the oracle run's, and no
   suspicion ever fires. (2) A gray failure (pause) of a replicated home
   drives the full cycle: Suspect -> quorum Depose -> Refute on resume ->
   Rejoin, with the digest still equal to the fault-free twin's and the
   victim demonstrably active after rejoining. (3) A healed network
   partition likewise preserves the digest. (4) Quorum safety: an even
   split leaves no side with a strict majority, so nobody is deposed.
   (5) A false depose loses no write of the node promoted in its place. *)

let check = Alcotest.check

let expect cond fmt =
  Format.kasprintf (fun msg -> if not cond then Alcotest.fail msg) fmt

let app () =
  match Apps.Registry.find "lu" Apps.Registry.Test with
  | Some a -> a
  | None -> Alcotest.fail "lu/test app missing"

let sum_counter (r : Svm.Runtime.report) f =
  Array.fold_left (fun acc n -> acc + f n.Svm.Runtime.nr_counters) 0 r.Svm.Runtime.r_nodes

let test_heartbeat_matches_oracle () =
  let app = app () in
  List.iter
    (fun proto ->
      let run detector =
        let cfg = Svm.Config.make ~nprocs:4 ~detector proto in
        let sink = Obs.Trace.create_sink () in
        let r = Svm.Runtime.run ~sink cfg (app.Apps.Registry.body ~verify:true) in
        (r, sink)
      in
      let oracle, _ = run Svm.Config.Oracle in
      let hb, sink = run Svm.Config.Heartbeat in
      let name = Svm.Config.protocol_name proto in
      check Alcotest.bool
        (name ^ ": heartbeat digest equals oracle digest")
        true
        (Int64.equal hb.Svm.Runtime.r_mem_digest oracle.Svm.Runtime.r_mem_digest);
      check Alcotest.int (name ^ ": no suspicions without faults") 0
        (sum_counter hb (fun c -> c.Svm.Stats.suspicions));
      Obs.Trace.iter sink (fun ev ->
          match ev.Obs.Trace.kind with
          | Obs.Trace.Suspect _ | Obs.Trace.Depose _ ->
              Alcotest.failf "%s: spurious %s without faults" name
                (Obs.Trace.kind_name ev.Obs.Trace.kind)
          | _ -> ()))
    [ Svm.Config.Hlrc; Svm.Config.Lrc ]

(* One cell of the false-suspicion soak, driven directly: pause the
   victim long enough for the quorum to depose it, then let it resume. *)
let test_pause_deposes_then_rejoins () =
  let app = app () in
  let nprocs = 4 in
  let victim = nprocs - 1 in
  let cfg = Svm.Config.make ~nprocs ~replicas:2 Svm.Config.Hlrc in
  let clean = Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:true) in
  let from_ = 0.4 *. clean.Svm.Runtime.r_elapsed in
  let until = from_ +. Float.max 3000. (4. *. 700.) in
  let chaos =
    {
      Machine.Chaos.none with
      Machine.Chaos.faults = [ Machine.Chaos.Pause { node = victim; from_; until } ];
    }
  in
  let cfg =
    Svm.Config.make ~nprocs ~replicas:2 ~chaos ~detector:Svm.Config.Heartbeat
      Svm.Config.Hlrc
  in
  let sink = Obs.Trace.create_sink () in
  let paused = Svm.Runtime.run ~sink cfg (app.Apps.Registry.body ~verify:true) in
  check Alcotest.bool "digest equals the fault-free twin's" true
    (Int64.equal paused.Svm.Runtime.r_mem_digest clean.Svm.Runtime.r_mem_digest);
  let suspect_at = ref Float.infinity
  and depose_at = ref Float.infinity
  and refuted = ref false
  and rejoin_at = ref Float.infinity
  and active_after = ref false in
  Obs.Trace.iter sink (fun ev ->
      match ev.Obs.Trace.kind with
      | Obs.Trace.Suspect { peer } when peer = victim ->
          suspect_at := Float.min !suspect_at ev.Obs.Trace.time
      | Obs.Trace.Refute { peer } when peer = victim -> refuted := true
      | Obs.Trace.Depose { node } when node = victim ->
          depose_at := Float.min !depose_at ev.Obs.Trace.time
      | Obs.Trace.Rejoin { node } when node = victim ->
          rejoin_at := Float.min !rejoin_at ev.Obs.Trace.time
      | (Obs.Trace.Page_fetch _ | Obs.Trace.Barrier_arrive _)
        when ev.Obs.Trace.node = victim && ev.Obs.Trace.time > !rejoin_at ->
          active_after := true
      | _ -> ());
  expect (Float.is_finite !suspect_at) "the pause must draw a suspicion";
  expect (Float.is_finite !depose_at) "the quorum must depose the victim";
  expect !refuted "the resumed victim's ping must refute the suspicion";
  expect (Float.is_finite !rejoin_at) "the refuted victim must rejoin";
  expect
    (!suspect_at >= from_ && !suspect_at <= !depose_at && !depose_at <= !rejoin_at)
    "order must be pause (%.0f) <= suspect (%.0f) <= depose (%.0f) <= rejoin (%.0f)"
    from_ !suspect_at !depose_at !rejoin_at;
  expect !active_after "the rejoined victim must participate after the heal";
  expect
    (sum_counter paused (fun c -> c.Svm.Stats.refutations) >= 1)
    "refutations counter must record the false suspicion"

(* Sever the victim from everyone, heal, and require the digest to match
   the fault-free twin: retransmission carries every message across the
   heal, and the deposed victim rejoins with no split brain. *)
let test_partition_heals_digest_intact () =
  let app = app () in
  let nprocs = 4 in
  let victim = nprocs - 1 in
  List.iter
    (fun detector ->
      let cfg = Svm.Config.make ~nprocs ~replicas:2 Svm.Config.Hlrc in
      let clean = Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:true) in
      let from_ = 0.35 *. clean.Svm.Runtime.r_elapsed in
      let until = from_ +. Float.max 3000. (0.2 *. clean.Svm.Runtime.r_elapsed) in
      let chaos =
        {
          Machine.Chaos.none with
          Machine.Chaos.faults =
            [ Machine.Chaos.Partition { group = [ victim ]; from_; until } ];
        }
      in
      let cfg = Svm.Config.make ~nprocs ~replicas:2 ~chaos ~detector Svm.Config.Hlrc in
      let r = Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:true) in
      check Alcotest.bool
        (Svm.Config.detector_name detector ^ ": healed-partition digest intact")
        true
        (Int64.equal r.Svm.Runtime.r_mem_digest clean.Svm.Runtime.r_mem_digest))
    [ Svm.Config.Oracle; Svm.Config.Heartbeat ]

(* An even split: each side suspects the other, but 2 of 4 is not a
   strict majority of the live membership, so no depose may happen. *)
let test_even_split_deposes_nobody () =
  let app = app () in
  let nprocs = 4 in
  let cfg = Svm.Config.make ~nprocs ~replicas:2 Svm.Config.Hlrc in
  let clean = Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:true) in
  let from_ = 0.35 *. clean.Svm.Runtime.r_elapsed in
  let until = from_ +. Float.max 3000. (0.2 *. clean.Svm.Runtime.r_elapsed) in
  let chaos =
    {
      Machine.Chaos.none with
      Machine.Chaos.faults =
        [ Machine.Chaos.Partition { group = [ 2; 3 ]; from_; until } ];
    }
  in
  let cfg =
    Svm.Config.make ~nprocs ~replicas:2 ~chaos ~detector:Svm.Config.Heartbeat
      Svm.Config.Hlrc
  in
  let sink = Obs.Trace.create_sink () in
  let r = Svm.Runtime.run ~sink cfg (app.Apps.Registry.body ~verify:true) in
  Obs.Trace.iter sink (fun ev ->
      match ev.Obs.Trace.kind with
      | Obs.Trace.Depose _ ->
          Alcotest.fail "an even split must never reach a strict majority"
      | _ -> ());
  check Alcotest.bool "even-split digest intact" true
    (Int64.equal r.Svm.Runtime.r_mem_digest clean.Svm.Runtime.r_mem_digest)

(* A false depose must not lose the promoted node's own writes. Pausing
   node 3 of an OHLRC kvstore (inval scheme) gets it deposed; node 0 is
   promoted for page 7, which it already caches, and write-faults it while
   the recovery pull is still in flight. Installing the rebuilt master over
   the page used to drop that write ("key 7 delta 0, expected 1"). *)
let test_depose_keeps_promoted_writes () =
  let app =
    match Apps.Registry.find "kvstore" Apps.Registry.Test with
    | Some a -> a
    | None -> Alcotest.fail "kvstore/test app missing"
  in
  let cfg = Svm.Config.make ~nprocs:4 ~replicas:2 Svm.Config.Ohlrc in
  let twin = Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:true) in
  let pause = Machine.Chaos.Pause { node = 3; from_ = 531017.; until = 534017. } in
  let paused =
    Svm.Runtime.run
      {
        cfg with
        Svm.Config.chaos = { Machine.Chaos.none with Machine.Chaos.faults = [ pause ] };
        detector = Svm.Config.Heartbeat;
        hb_interval = 200.;
      }
      (app.Apps.Registry.body ~verify:true)
  in
  check Alcotest.bool "node 3 was deposed" true
    (sum_counter paused (fun c -> c.Svm.Stats.failovers) > 0);
  check Alcotest.bool "digest equals the fault-free twin's" true
    (Int64.equal paused.Svm.Runtime.r_mem_digest twin.Svm.Runtime.r_mem_digest)

let suite =
  [
    ("heartbeat matches oracle when fault-free", `Quick, test_heartbeat_matches_oracle);
    ("pause deposes then rejoins", `Quick, test_pause_deposes_then_rejoins);
    ("partition heals with digest intact", `Quick, test_partition_heals_digest_intact);
    ("even split deposes nobody", `Quick, test_even_split_deposes_nobody);
    ("false depose keeps the promoted node's writes", `Quick, test_depose_keeps_promoted_writes);
  ]
