(* Fault injection (chaos), the reliable transport, and the no-progress
   watchdog: RNG soundness, plan determinism, exactly-once in-order
   delivery under faults, differential soundness across the protocol
   matrix, and the diagnostic failure when messages are dropped forever. *)

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- Rng.int: rejection sampling --------------------------------------- *)

let test_rng_int_bounds () =
  let rng = Sim.Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int rng 3 in
    check Alcotest.bool "in range" true (v >= 0 && v < 3)
  done;
  (try
     ignore (Sim.Rng.int rng 0);
     Alcotest.fail "bound 0 must be rejected"
   with Invalid_argument _ -> ());
  try
    ignore (Sim.Rng.int rng (-5));
    Alcotest.fail "negative bound must be rejected"
  with Invalid_argument _ -> ()

let test_rng_int_uniform () =
  (* With rejection sampling each residue of a non-power-of-two bound is
     equally likely; 60k draws over bound 3 should put each bucket well
     within 5% of a third. *)
  let rng = Sim.Rng.create ~seed:99 in
  let n = 60_000 in
  let buckets = Array.make 3 0 in
  for _ = 1 to n do
    let v = Sim.Rng.int rng 3 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i count ->
      let frac = float_of_int count /. float_of_int n in
      if Float.abs (frac -. (1. /. 3.)) > 0.05 then
        Alcotest.failf "bucket %d has fraction %.3f, expected ~0.333" i frac)
    buckets

(* --- Chaos plan --------------------------------------------------------- *)

let test_chaos_validate () =
  let bad p = match Machine.Chaos.validate p with Ok () -> false | Error _ -> true in
  let base = Machine.Chaos.none in
  check Alcotest.bool "none is valid" false (bad base);
  check Alcotest.bool "negative drop rate" true (bad { base with Machine.Chaos.drop_rate = -0.1 });
  check Alcotest.bool "drop rate > 1" true (bad { base with Machine.Chaos.drop_rate = 1.5 });
  check Alcotest.bool "nan dup rate" true (bad { base with Machine.Chaos.dup_rate = Float.nan });
  check Alcotest.bool "negative jitter" true (bad { base with Machine.Chaos.jitter = -1.0 });
  check Alcotest.bool "straggler < 1" true (bad { base with Machine.Chaos.straggler = 0.5 });
  let faults fs = { base with Machine.Chaos.faults = fs } in
  let kill node at = Machine.Chaos.Kill { node; at } in
  let pause node from_ until = Machine.Chaos.Pause { node; from_; until } in
  let part group from_ until = Machine.Chaos.Partition { group; from_; until } in
  check Alcotest.bool "a well-formed schedule is valid" false
    (bad (faults [ kill 2 500.; pause 1 100. 200.; part [ 1; 2 ] 50. 150. ]));
  check Alcotest.bool "kill of node 0 (the manager)" true (bad (faults [ kill 0 100. ]));
  check Alcotest.bool "kill at negative time" true (bad (faults [ kill 1 (-1.) ]));
  check Alcotest.bool "pause of node 0 (the manager)" true
    (bad (faults [ pause 0 0. 100. ]));
  check Alcotest.bool "inverted pause window" true (bad (faults [ pause 1 200. 100. ]));
  check Alcotest.bool "pause window overlapping the same node's kill" true
    (bad (faults [ pause 2 100. 400.; kill 2 250. ]));
  check Alcotest.bool "pause window ending before the kill is fine" false
    (bad (faults [ pause 2 100. 200.; kill 2 250. ]));
  check Alcotest.bool "empty partition group" true (bad (faults [ part [] 0. 100. ]));
  check Alcotest.bool "partition group repeating a node" true
    (bad (faults [ part [ 1; 2; 1 ] 0. 100. ]));
  check Alcotest.bool "partition group with a negative node" true
    (bad (faults [ part [ -1; 2 ] 0. 100. ]));
  check Alcotest.bool "inverted partition window" true
    (bad (faults [ part [ 1 ] 300. 200. ]));
  try
    ignore
      (Machine.Chaos.create { base with Machine.Chaos.drop_rate = 2.0 } ~nprocs:2);
    Alcotest.fail "create must reject invalid params"
  with Invalid_argument _ -> ()

let test_chaos_deterministic () =
  let p =
    {
      Machine.Chaos.none with
      Machine.Chaos.drop_rate = 0.3;
      dup_rate = 0.2;
      jitter = 4.0;
      straggler = 1.5;
      fault_seed = 11;
    }
  in
  let verdicts plan =
    List.init 200 (fun i ->
        let v = Machine.Chaos.judge plan ~src:(i mod 3) ~dst:((i + 1) mod 3) in
        (v.Machine.Chaos.drop, v.Machine.Chaos.duplicate, v.Machine.Chaos.delay))
  in
  let a = verdicts (Machine.Chaos.create p ~nprocs:3) in
  let b = verdicts (Machine.Chaos.create p ~nprocs:3) in
  check Alcotest.bool "same seed, same faults" true (a = b);
  let c = verdicts (Machine.Chaos.create { p with Machine.Chaos.fault_seed = 12 } ~nprocs:3) in
  check Alcotest.bool "different seed, different faults" true (a <> c);
  let plan = Machine.Chaos.create p ~nprocs:3 in
  Array.iter
    (fun i ->
      let s = Machine.Chaos.slowdown plan ~node:i in
      check Alcotest.bool "slowdown within [1, straggler]" true (s >= 1.0 && s <= 1.5))
    [| 0; 1; 2 |]

(* --- Transport: exactly-once, in-order, despite faults ------------------ *)

let test_transport_reliable_fifo () =
  let engine = Sim.Engine.create () in
  let net = Machine.Network.create ~costs:Machine.Costs.paragon ~nprocs:4 in
  let chaos =
    Machine.Chaos.create
      {
        Machine.Chaos.none with
        Machine.Chaos.drop_rate = 0.3;
        dup_rate = 0.2;
        jitter = 10.0;
        straggler = 1.0;
        fault_seed = 5;
      }
      ~nprocs:4
  in
  let drops = ref 0 and dups = ref 0 in
  let notify ~time:_ = function
    | Machine.Transport.Dropped _ -> incr drops
    | Machine.Transport.Dup_dropped _ -> incr dups
    | _ -> ()
  in
  let tr = Machine.Transport.create ~engine ~net ~chaos ~alive:(fun _ -> true) ~notify () in
  let n = 200 in
  let delivered = ref [] in
  for i = 0 to n - 1 do
    Machine.Transport.send tr ~src:0 ~dst:3 ~at:(float_of_int i) ~bytes:64 (fun when_ ->
        delivered := (i, when_) :: !delivered)
  done;
  ignore (Sim.Engine.run engine);
  let delivered = List.rev !delivered in
  check Alcotest.int "every payload delivered exactly once" n (List.length delivered);
  check Alcotest.bool "delivered in send order" true
    (List.for_all2 (fun (i, _) j -> i = j) delivered (List.init n Fun.id));
  ignore
    (List.fold_left
       (fun prev (_, t) ->
         check Alcotest.bool "delivery times nondecreasing" true (t >= prev);
         t)
       0. delivered);
  check Alcotest.bool "the plan actually dropped packets" true (!drops > 0);
  check Alcotest.int "nothing left unacknowledged" 0 (Machine.Transport.inflight_count tr);
  check Alcotest.int "nothing abandoned" 0 (Machine.Transport.gave_up_count tr);
  try
    Machine.Transport.send tr ~src:1 ~dst:1 ~at:0. ~bytes:8 (fun _ -> ());
    Alcotest.fail "loopback must be rejected"
  with Invalid_argument _ -> ()

let test_transport_no_spurious_retransmits () =
  (* Send timestamps on one link are not monotone (a node's service replies
     are timed from request arrival, its own traffic from its clock), so a
     packet can wait in the reorder buffer behind a predecessor transmitted
     later. The selective part of the ack must stop its timer: with nothing
     dropped, nothing may ever be retransmitted. *)
  let engine = Sim.Engine.create () in
  let net = Machine.Network.create ~costs:Machine.Costs.paragon ~nprocs:2 in
  let chaos =
    Machine.Chaos.create
      { Machine.Chaos.none with Machine.Chaos.jitter = 10.0 }
      ~nprocs:2
  in
  let retransmits = ref 0 in
  let notify ~time:_ = function
    | Machine.Transport.Retransmit _ -> incr retransmits
    | _ -> ()
  in
  let tr = Machine.Transport.create ~engine ~net ~chaos ~alive:(fun _ -> true) ~notify () in
  let delivered = ref [] in
  (* Call order 0,1,2,3 but transmit times far apart and inverted. *)
  List.iteri
    (fun i at ->
      Machine.Transport.send tr ~src:0 ~dst:1 ~at ~bytes:64 (fun _ ->
          delivered := i :: !delivered))
    [ 5000.; 10.; 8000.; 20. ];
  ignore (Sim.Engine.run engine);
  check (Alcotest.list Alcotest.int) "delivered once each, in call order" [ 0; 1; 2; 3 ]
    (List.rev !delivered);
  check Alcotest.int "no spurious retransmissions" 0 !retransmits;
  check Alcotest.int "all acked" 0 (Machine.Transport.inflight_count tr)

let test_transport_gives_up () =
  let engine = Sim.Engine.create () in
  let net = Machine.Network.create ~costs:Machine.Costs.paragon ~nprocs:2 in
  let chaos =
    Machine.Chaos.create
      { Machine.Chaos.none with Machine.Chaos.drop_rate = 1.0 }
      ~nprocs:2
  in
  let gave_up = ref 0 and retransmits = ref 0 and final_retries = ref (-1) in
  let notify ~time:_ = function
    | Machine.Transport.Gave_up { retries; _ } ->
        incr gave_up;
        final_retries := retries
    | Machine.Transport.Retransmit _ -> incr retransmits
    | _ -> ()
  in
  let tr = Machine.Transport.create ~engine ~net ~chaos ~alive:(fun _ -> true) ~max_retries:3 ~notify ()
  in
  let delivered = ref false in
  Machine.Transport.send tr ~src:0 ~dst:1 ~at:0. ~bytes:64 (fun _ -> delivered := true);
  ignore (Sim.Engine.run engine);
  check Alcotest.bool "never delivered" false !delivered;
  check Alcotest.int "gave up once" 1 !gave_up;
  check Alcotest.int "recorded as abandoned" 1 (Machine.Transport.gave_up_count tr);
  (* The cap is a hard stop: exactly max_retries resends, none after. *)
  check Alcotest.int "no retransmission past the cap" 3 !retransmits;
  check Alcotest.int "the abandonment notice reports the cap" 3 !final_retries;
  check Alcotest.int "nothing left in flight after giving up" 0
    (Machine.Transport.inflight_count tr)

let test_transport_crash_stop () =
  (* The caller owns liveness: it flips [alive] and calls [kill_peer] in one
     event, as [Svm.System.kill_node] does. Seed 2 drops 6 of the 20 first
     copies, none of seq 0-6: without the kill the dropped ones would be
     retransmitted, and the in-order prefix 0-6 would reach its handlers. *)
  let engine = Sim.Engine.create () in
  let net = Machine.Network.create ~costs:Machine.Costs.paragon ~nprocs:3 in
  let chaos =
    Machine.Chaos.create
      { Machine.Chaos.none with Machine.Chaos.drop_rate = 0.5; fault_seed = 2 }
      ~nprocs:3
  in
  let alive = Array.make 3 true in
  let notices = ref [] in
  let notify ~time n = notices := (time, n) :: !notices in
  let tr =
    Machine.Transport.create ~engine ~net ~chaos ~alive:(fun n -> alive.(n)) ~notify ()
  in
  let n = 20 and handled = ref 0 in
  for _ = 1 to n do
    Machine.Transport.send tr ~src:0 ~dst:2 ~at:0. ~bytes:64 (fun _ -> incr handled)
  done;
  let kill_at = Machine.Network.transfer_time net ~src:0 ~dst:2 ~bytes:64 /. 2. in
  Sim.Engine.schedule engine ~at:kill_at (fun () ->
      check Alcotest.int "every packet still in flight at the kill" n
        (Machine.Transport.inflight_count tr);
      alive.(2) <- false;
      Machine.Transport.kill_peer tr ~peer:2 ~time:kill_at);
  ignore (Sim.Engine.run engine);
  let cancelled =
    List.filter
      (function
        | time, Machine.Transport.Peer_dead _ -> time = kill_at
        | _ -> false)
      !notices
  in
  check Alcotest.int "the kill reports each packet in flight" n (List.length cancelled);
  check Alcotest.bool "no retransmission or ack follows the kill" true
    (List.for_all
       (function
         | _, (Machine.Transport.Retransmit _ | Machine.Transport.Ack_sent _) -> false
         | _ -> true)
       !notices);
  check Alcotest.int "no handler ran at the dead receiver" 0 !handled;
  check Alcotest.int "nothing left in flight" 0 (Machine.Transport.inflight_count tr);
  notices := [];
  Machine.Transport.send tr ~src:0 ~dst:2 ~at:(Sim.Engine.now engine) ~bytes:64 (fun _ ->
      incr handled);
  ignore (Sim.Engine.run engine);
  match !notices with
  | [ (_, Machine.Transport.Peer_dead { src = 0; dst = 2; seq = -1; bytes = 64 }) ] -> ()
  | _ -> Alcotest.fail "a later send to the dead peer must be refused with seq -1"

(* --- Config plumbing ---------------------------------------------------- *)

let chaos_mild fault_seed =
  {
    Machine.Chaos.none with
    Machine.Chaos.drop_rate = 0.05;
    dup_rate = 0.02;
    jitter = 5.0;
    straggler = 1.25;
    Machine.Chaos.fault_seed = fault_seed;
  }

let test_config_rejects_bad_chaos () =
  try
    ignore
      (Svm.Config.make ~nprocs:2
         ~chaos:{ Machine.Chaos.none with Machine.Chaos.drop_rate = -1.0 }
         Svm.Config.Hlrc);
    Alcotest.fail "Config.make must reject invalid chaos params"
  with Invalid_argument msg ->
    check Alcotest.bool "message names the rate" true (contains msg "drop rate")

let test_zero_chaos_byte_identical () =
  (* An explicit inert plan must not change a single byte of the report:
     the fault-free path bypasses the transport entirely. *)
  let app =
    match Apps.Registry.find "lu" Apps.Registry.Test with
    | Some a -> a
    | None -> Alcotest.fail "lu/test app missing"
  in
  let report cfg = Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:false) in
  let plain = report (Svm.Config.make ~nprocs:4 Svm.Config.Hlrc) in
  let inert = report (Svm.Config.make ~nprocs:4 ~chaos:Machine.Chaos.none Svm.Config.Hlrc) in
  check Alcotest.string "identical JSON" (Svm.Report_json.to_string plain)
    (Svm.Report_json.to_string inert)

let test_chaos_report_valid () =
  let app =
    match Apps.Registry.find "sor" Apps.Registry.Test with
    | Some a -> a
    | None -> Alcotest.fail "sor/test app missing"
  in
  let cfg = Svm.Config.make ~nprocs:4 ~chaos:(chaos_mild 1) Svm.Config.Hlrc in
  let r = Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:true) in
  (match Svm.Report_json.validate (Svm.Report_json.encode r) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chaos report fails validation: %s" e);
  let s = Svm.Report_json.to_string r in
  check Alcotest.bool "report carries transport counters" true (contains s "msg_retransmits");
  check Alcotest.bool "report carries the memory digest" true (contains s "mem_digest")

(* --- Watchdog ----------------------------------------------------------- *)

let test_watchdog_on_dropped_lock_grant () =
  (* Every packet is lost, so node 1's lock-acquire request (and any grant)
     can never arrive: after the retry cap the engine drains with node 1
     still blocked, and the watchdog must name the problem. *)
  let chaos = { Machine.Chaos.none with Machine.Chaos.drop_rate = 1.0 } in
  let cfg = Svm.Config.make ~nprocs:2 ~chaos Svm.Config.Hlrc in
  let app ctx =
    if Svm.Api.pid ctx = 1 then begin
      Svm.Api.lock ctx 0;
      Svm.Api.unlock ctx 0
    end
  in
  try
    ignore (Svm.Runtime.run cfg app);
    Alcotest.fail "a fully lossy network must trip the watchdog"
  with Svm.System.Deadlock msg ->
    check Alcotest.bool "dump names the watchdog" true (contains msg "watchdog");
    check Alcotest.bool "dump counts unfinished processes" true
      (contains msg "1 of 2 processes unfinished");
    check Alcotest.bool "dump shows the blocked lock wait" true
      (contains msg "waiting for a lock");
    check Alcotest.bool "dump shows the abandoned packet" true (contains msg "retry cap")

let suite =
  [
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng int uniform", `Quick, test_rng_int_uniform);
    ("chaos validate", `Quick, test_chaos_validate);
    ("chaos deterministic", `Quick, test_chaos_deterministic);
    ("transport reliable fifo", `Quick, test_transport_reliable_fifo);
    ("transport no spurious retransmits", `Quick, test_transport_no_spurious_retransmits);
    ("transport gives up", `Quick, test_transport_gives_up);
    ("transport crash stop", `Quick, test_transport_crash_stop);
    ("config rejects bad chaos", `Quick, test_config_rejects_bad_chaos);
    ("zero chaos byte identical", `Quick, test_zero_chaos_byte_identical);
    ("chaos report valid", `Quick, test_chaos_report_valid);
    ("watchdog on dropped lock grant", `Quick, test_watchdog_on_dropped_lock_grant);
  ]
