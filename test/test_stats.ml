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
    ("epoch deltas", `Quick, test_epoch_deltas);
    ("breakdown_sub is componentwise", `Quick, test_breakdown_sub_componentwise);
    ("epoch delta invariants", `Quick, test_epoch_deltas_invariants);
    ("traffic bookkeeping", `Quick, test_traffic_bookkeeping);
    ("single node has no traffic", `Quick, test_single_node_no_traffic);
    ("home effect: no diffs (paper 4.4)", `Quick, test_home_effect_no_diffs);
    ("update-traffic trade-off", `Quick, test_update_traffic_tradeoff);
    ("mean compute", `Quick, test_mean_compute_balanced);
  ]
