(* Statistics and reporting invariants: breakdown arithmetic, epoch deltas,
   counters and traffic bookkeeping. *)

let check = Alcotest.check

let test_breakdown_arithmetic () =
  let b = Svm.Stats.breakdown_zero () in
  b.Svm.Stats.compute <- 10.;
  b.Svm.Stats.lock <- 5.;
  check (Alcotest.float 0.) "total" 15. (Svm.Stats.breakdown_total b);
  let c = Svm.Stats.breakdown_copy b in
  b.Svm.Stats.compute <- 99.;
  check (Alcotest.float 0.) "copy is independent" 10. c.Svm.Stats.compute;
  let d = Svm.Stats.breakdown_sub b c in
  check (Alcotest.float 0.) "sub compute" 89. d.Svm.Stats.compute;
  check (Alcotest.float 0.) "sub lock" 0. d.Svm.Stats.lock

let test_counters_arithmetic () =
  let a = Svm.Stats.counters_zero () in
  a.Svm.Stats.messages <- 7;
  a.Svm.Stats.diffs_created <- 3;
  let b = Svm.Stats.counters_copy a in
  a.Svm.Stats.messages <- 10;
  let d = Svm.Stats.counters_sub a b in
  check Alcotest.int "delta messages" 3 d.Svm.Stats.messages;
  check Alcotest.int "delta diffs" 0 d.Svm.Stats.diffs_created

let test_epoch_deltas () =
  let s = Svm.Stats.create () in
  s.Svm.Stats.b.Svm.Stats.compute <- 5.;
  Svm.Stats.mark_epoch s;
  s.Svm.Stats.b.Svm.Stats.compute <- 12.;
  s.Svm.Stats.b.Svm.Stats.lock <- 2.;
  Svm.Stats.mark_epoch s;
  match Svm.Stats.epoch_deltas s with
  | [ e1; e2 ] ->
      check (Alcotest.float 0.) "first epoch" 5. e1.Svm.Stats.compute;
      check (Alcotest.float 0.) "second epoch compute" 7. e2.Svm.Stats.compute;
      check (Alcotest.float 0.) "second epoch lock" 2. e2.Svm.Stats.lock
  | other -> Alcotest.failf "expected 2 epochs, got %d" (List.length other)

(* Subtraction is componentwise over every field, not just the ones the
   older tests happened to touch. *)
let test_breakdown_sub_componentwise () =
  let fill v =
    let b = Svm.Stats.breakdown_zero () in
    b.Svm.Stats.compute <- v;
    b.Svm.Stats.data <- v +. 1.;
    b.Svm.Stats.lock <- v +. 2.;
    b.Svm.Stats.barrier <- v +. 3.;
    b.Svm.Stats.protocol <- v +. 4.;
    b.Svm.Stats.gc <- v +. 5.;
    b
  in
  let d = Svm.Stats.breakdown_sub (fill 10.) (fill 3.) in
  List.iter
    (fun (name, got) -> check (Alcotest.float 0.) name 7. got)
    [
      ("compute", d.Svm.Stats.compute);
      ("data", d.Svm.Stats.data);
      ("lock", d.Svm.Stats.lock);
      ("barrier", d.Svm.Stats.barrier);
      ("protocol", d.Svm.Stats.protocol);
      ("gc", d.Svm.Stats.gc);
    ];
  check (Alcotest.float 0.) "total of the difference" 42. (Svm.Stats.breakdown_total d)

let test_counters_sub_componentwise () =
  let fill v =
    let c = Svm.Stats.counters_zero () in
    c.Svm.Stats.read_misses <- v;
    c.Svm.Stats.write_faults <- v + 1;
    c.Svm.Stats.diffs_created <- v + 2;
    c.Svm.Stats.diffs_applied <- v + 3;
    c.Svm.Stats.lock_acquires <- v + 4;
    c.Svm.Stats.remote_acquires <- v + 5;
    c.Svm.Stats.barriers <- v + 6;
    c.Svm.Stats.messages <- v + 7;
    c.Svm.Stats.update_bytes <- v + 8;
    c.Svm.Stats.protocol_bytes <- v + 9;
    c.Svm.Stats.page_fetches <- v + 10;
    c.Svm.Stats.gc_runs <- v + 11;
    c.Svm.Stats.home_migrations <- v + 12;
    c.Svm.Stats.msg_drops <- v + 13;
    c.Svm.Stats.msg_retransmits <- v + 14;
    c.Svm.Stats.msg_acks <- v + 15;
    c.Svm.Stats.msg_dup_dropped <- v + 16;
    c.Svm.Stats.repl_updates <- v + 17;
    c.Svm.Stats.repl_invals <- v + 18;
    c.Svm.Stats.repl_bytes <- v + 19;
    c.Svm.Stats.failovers <- v + 20;
    c.Svm.Stats.msg_peer_dead <- v + 21;
    c
  in
  let d = Svm.Stats.counters_sub (fill 20) (fill 5) in
  List.iter
    (fun (name, got) -> check Alcotest.int name 15 got)
    [
      ("read_misses", d.Svm.Stats.read_misses);
      ("write_faults", d.Svm.Stats.write_faults);
      ("diffs_created", d.Svm.Stats.diffs_created);
      ("diffs_applied", d.Svm.Stats.diffs_applied);
      ("lock_acquires", d.Svm.Stats.lock_acquires);
      ("remote_acquires", d.Svm.Stats.remote_acquires);
      ("barriers", d.Svm.Stats.barriers);
      ("messages", d.Svm.Stats.messages);
      ("update_bytes", d.Svm.Stats.update_bytes);
      ("protocol_bytes", d.Svm.Stats.protocol_bytes);
      ("page_fetches", d.Svm.Stats.page_fetches);
      ("gc_runs", d.Svm.Stats.gc_runs);
      ("home_migrations", d.Svm.Stats.home_migrations);
      ("msg_drops", d.Svm.Stats.msg_drops);
      ("msg_retransmits", d.Svm.Stats.msg_retransmits);
      ("msg_acks", d.Svm.Stats.msg_acks);
      ("msg_dup_dropped", d.Svm.Stats.msg_dup_dropped);
      ("repl_updates", d.Svm.Stats.repl_updates);
      ("repl_invals", d.Svm.Stats.repl_invals);
      ("repl_bytes", d.Svm.Stats.repl_bytes);
      ("failovers", d.Svm.Stats.failovers);
      ("msg_peer_dead", d.Svm.Stats.msg_peer_dead);
    ]

(* Epoch deltas: chronological, the first epoch measured from zero, none
   before the first mark, and the deltas sum back to the final totals. *)
let test_epoch_deltas_invariants () =
  let s = Svm.Stats.create () in
  check Alcotest.int "no epochs before the first mark" 0
    (List.length (Svm.Stats.epoch_deltas s));
  s.Svm.Stats.b.Svm.Stats.compute <- 3.;
  s.Svm.Stats.b.Svm.Stats.barrier <- 1.;
  Svm.Stats.mark_epoch s;
  s.Svm.Stats.b.Svm.Stats.compute <- 8.;
  Svm.Stats.mark_epoch s;
  s.Svm.Stats.b.Svm.Stats.compute <- 9.;
  s.Svm.Stats.b.Svm.Stats.gc <- 2.;
  Svm.Stats.mark_epoch s;
  let deltas = Svm.Stats.epoch_deltas s in
  check Alcotest.int "one delta per mark" 3 (List.length deltas);
  (match deltas with
  | first :: _ ->
      check (Alcotest.float 0.) "first epoch measured from zero" 3. first.Svm.Stats.compute;
      check (Alcotest.float 0.) "first epoch barrier" 1. first.Svm.Stats.barrier
  | [] -> Alcotest.fail "no deltas");
  let sum field = List.fold_left (fun acc d -> acc +. field d) 0. deltas in
  check (Alcotest.float 1e-9) "compute deltas telescope" 9. (sum (fun d -> d.Svm.Stats.compute));
  check (Alcotest.float 1e-9) "gc deltas telescope" 2. (sum (fun d -> d.Svm.Stats.gc));
  List.iter
    (fun d ->
      check Alcotest.bool "deltas are non-negative" true
        (Svm.Stats.breakdown_total d >= 0.))
    deltas

(* End-to-end bookkeeping: message counts and traffic split. *)
let test_traffic_bookkeeping () =
  let app ctx =
    let me = Svm.Api.pid ctx in
    if me = 0 then begin
      let a = Svm.Api.malloc ctx ~name:"a" 1024 in
      for i = 0 to 1023 do
        Svm.Api.write_int ctx (a + i) i
      done
    end;
    Svm.Api.barrier ctx;
    let a = Svm.Api.root ctx "a" in
    if me = 1 then ignore (Svm.Api.read_int ctx a);
    Svm.Api.barrier ctx
  in
  List.iter
    (fun protocol ->
      let r = Svm.Runtime.run (Svm.Config.make ~nprocs:2 protocol) app in
      check Alcotest.bool "messages flowed" true (Svm.Runtime.total_messages r > 0);
      (* node 1 pulled a whole page (or the diffs for one) *)
      check Alcotest.bool "update traffic nonzero" true (Svm.Runtime.total_update_bytes r > 0);
      check Alcotest.bool "protocol traffic nonzero" true
        (Svm.Runtime.total_protocol_bytes r > 0))
    Svm.Config.all_protocols

(* Under P=1 nothing is remote: no messages, no update traffic. *)
let test_single_node_no_traffic () =
  List.iter
    (fun protocol ->
      let r =
        Svm.Runtime.run
          (Svm.Config.make ~nprocs:1 protocol)
          (fun ctx ->
            let a = Svm.Api.malloc ctx 2048 in
            for i = 0 to 2047 do
              Svm.Api.write_int ctx (a + i) i
            done;
            Svm.Api.barrier ctx)
      in
      check Alcotest.int "no messages" 0 (Svm.Runtime.total_messages r);
      check Alcotest.int "no update bytes" 0 (Svm.Runtime.total_update_bytes r))
    Svm.Config.all_protocols

(* The home effect (paper 4.4): with pages homed at their single writer,
   HLRC creates no diffs at all. *)
let test_home_effect_no_diffs () =
  let app ctx =
    let me = Svm.Api.pid ctx and np = Svm.Api.nprocs ctx in
    if me = 0 then
      ignore
        (Svm.Api.malloc ctx ~name:"a"
           ~home:(fun page -> page mod np)
           (np * 1024));
    Svm.Api.barrier ctx;
    Svm.Api.start_timing ctx;
    let a = Svm.Api.root ctx "a" in
    (* each node writes exactly the page homed at it *)
    for i = 0 to 1023 do
      Svm.Api.write_int ctx (a + (me * 1024) + i) i
    done;
    Svm.Api.barrier ctx;
    (* and reads a neighbour's page *)
    ignore (Svm.Api.read_int ctx (a + ((me + 1) mod np * 1024)));
    Svm.Api.barrier ctx
  in
  let r = Svm.Runtime.run (Svm.Config.make ~nprocs:4 Svm.Config.Hlrc) app in
  Array.iter
    (fun n ->
      check Alcotest.int "no diffs at home" 0 n.Svm.Runtime.nr_counters.Svm.Stats.diffs_created)
    r.Svm.Runtime.r_nodes;
  (* the same workload under LRC does create diffs *)
  let r' = Svm.Runtime.run (Svm.Config.make ~nprocs:4 Svm.Config.Lrc) app in
  check Alcotest.bool "homeless protocol creates diffs" true
    (Array.exists
       (fun n -> n.Svm.Runtime.nr_counters.Svm.Stats.diffs_created > 0)
       r'.Svm.Runtime.r_nodes)

(* HLRC fetches whole pages; LRC transfers diffs. For a tiny update the
   homeless protocol must move fewer update bytes (the paper's
   bandwidth-vs-latency trade-off, 2.2/4.6). *)
let test_update_traffic_tradeoff () =
  let app ctx =
    let me = Svm.Api.pid ctx in
    if me = 0 then ignore (Svm.Api.malloc ctx ~name:"x" 1024);
    Svm.Api.barrier ctx;
    let x = Svm.Api.root ctx "x" in
    (* warm both caches so LRC later needs only a one-word diff *)
    ignore (Svm.Api.read_int ctx x);
    Svm.Api.barrier ctx;
    Svm.Api.start_timing ctx;
    if me = 0 then Svm.Api.write_int ctx x 1;
    Svm.Api.barrier ctx;
    if me = 1 then ignore (Svm.Api.read_int ctx x);
    Svm.Api.barrier ctx
  in
  let lrc = Svm.Runtime.run (Svm.Config.make ~nprocs:2 Svm.Config.Lrc) app in
  let hlrc = Svm.Runtime.run (Svm.Config.make ~nprocs:2 Svm.Config.Hlrc) app in
  check Alcotest.bool "one-word diff beats a full page" true
    (Svm.Runtime.total_update_bytes lrc * 4 < Svm.Runtime.total_update_bytes hlrc)

let test_mean_compute_balanced () =
  let r =
    Svm.Runtime.run
      (Svm.Config.make ~nprocs:4 Svm.Config.Hlrc)
      (fun ctx ->
        Svm.Api.start_timing ctx;
        Svm.Api.compute ctx 1000.;
        Svm.Api.barrier ctx)
  in
  check (Alcotest.float 1.) "mean compute" 1000. (Svm.Runtime.mean_compute r)

let suite =
  [
    ("breakdown arithmetic", `Quick, test_breakdown_arithmetic);
    ("counters arithmetic", `Quick, test_counters_arithmetic);
    ("epoch deltas", `Quick, test_epoch_deltas);
    ("breakdown_sub is componentwise", `Quick, test_breakdown_sub_componentwise);
    ("counters_sub is componentwise", `Quick, test_counters_sub_componentwise);
    ("epoch delta invariants", `Quick, test_epoch_deltas_invariants);
    ("traffic bookkeeping", `Quick, test_traffic_bookkeeping);
    ("single node has no traffic", `Quick, test_single_node_no_traffic);
    ("home effect: no diffs (paper 4.4)", `Quick, test_home_effect_no_diffs);
    ("update-traffic trade-off", `Quick, test_update_traffic_tradeoff);
    ("mean compute", `Quick, test_mean_compute_balanced);
  ]
