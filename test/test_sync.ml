(* Synchronization-specific behaviour: lock locality, token forwarding,
   mutual exclusion, barrier counting, and the costs the paper attributes to
   them. *)

let check = Alcotest.check

let run ?(nprocs = 2) ?(protocol = Svm.Config.Hlrc) app =
  Svm.Runtime.run (Svm.Config.make ~nprocs protocol) app

(* A re-acquire of a lock nobody else requested costs no messages. *)
let test_local_reacquire_free () =
  let r =
    run ~nprocs:2 (fun ctx ->
        Svm.Api.barrier ctx;
        Svm.Api.start_timing ctx;
        if Svm.Api.pid ctx = 0 then
          for _ = 1 to 50 do
            (* lock 0's manager is node 0 and nobody else uses it *)
            Svm.Api.lock ctx 0;
            Svm.Api.unlock ctx 0
          done;
        Svm.Api.barrier ctx)
  in
  let c0 = r.Svm.Runtime.r_nodes.(0).Svm.Runtime.nr_counters in
  check Alcotest.int "all acquires local" 50 c0.Svm.Stats.lock_acquires;
  check Alcotest.int "no remote acquires" 0 c0.Svm.Stats.remote_acquires

let test_remote_acquire_counted () =
  let r =
    run ~nprocs:2 (fun ctx ->
        Svm.Api.barrier ctx;
        Svm.Api.start_timing ctx;
        (* lock 1 is managed by node 1; node 0's acquires alternate *)
        for _ = 1 to 4 do
          Svm.Api.lock ctx 1;
          Svm.Api.compute ctx 500.;
          Svm.Api.unlock ctx 1
        done;
        Svm.Api.barrier ctx)
  in
  let total_remote =
    Array.fold_left
      (fun acc n -> acc + n.Svm.Runtime.nr_counters.Svm.Stats.remote_acquires)
      0 r.Svm.Runtime.r_nodes
  in
  check Alcotest.bool "token ping-pongs" true (total_remote >= 2)

(* Mutual exclusion: a non-atomic read-modify-write under the lock never
   loses an update, whatever the protocol. *)
let test_mutual_exclusion () =
  List.iter
    (fun protocol ->
      ignore
        (run ~nprocs:8 ~protocol (fun ctx ->
             if Svm.Api.pid ctx = 0 then ignore (Svm.Api.malloc ctx ~name:"n" 1);
             Svm.Api.barrier ctx;
             let n = Svm.Api.root ctx "n" in
             for _ = 1 to 10 do
               Svm.Api.lock ctx 7;
               let v = Svm.Api.read_int ctx n in
               Svm.Api.compute ctx 100.;
               (* widen the race window *)
               Svm.Api.write_int ctx n (v + 1);
               Svm.Api.unlock ctx 7
             done;
             Svm.Api.barrier ctx;
             check Alcotest.int "no lost updates" 80 (Svm.Api.read_int ctx n))))
    Svm.Config.all_protocols

let test_barrier_counts () =
  let r =
    run ~nprocs:4 (fun ctx ->
        Svm.Api.start_timing ctx;
        for _ = 1 to 6 do
          Svm.Api.barrier ctx
        done)
  in
  Array.iter
    (fun n -> check Alcotest.int "six barriers" 6 n.Svm.Runtime.nr_counters.Svm.Stats.barriers)
    r.Svm.Runtime.r_nodes

(* Barriers synchronize time: after a barrier no node's clock can be behind
   the latest arrival. *)
let test_barrier_synchronizes_time () =
  ignore
    (run ~nprocs:3 (fun ctx ->
         let me = Svm.Api.pid ctx in
         Svm.Api.compute ctx (float_of_int (1 + me) *. 10_000.);
         Svm.Api.barrier ctx;
         (* All nodes continue from at least the slowest arrival. *)
         ()));
  (* elapsed must be >= the slowest node's pre-barrier compute *)
  let r =
    run ~nprocs:3 (fun ctx ->
        Svm.Api.start_timing ctx;
        Svm.Api.compute ctx (float_of_int (1 + Svm.Api.pid ctx) *. 10_000.);
        Svm.Api.barrier ctx)
  in
  check Alcotest.bool "slowest bounds elapsed" true (r.Svm.Runtime.r_elapsed >= 30_000.)

(* The cost of one remote acquire matches the paper's 1,550 us derivation:
   requester -> manager -> holder -> requester, with the manager and the
   holder on different third-party nodes (3 messages, 2 interrupts). *)
let test_remote_acquire_cost () =
  let r =
    run ~nprocs:4 (fun ctx ->
        Svm.Api.barrier ctx;
        Svm.Api.start_timing ctx;
        (* lock 5's manager is node 1; node 2 takes the token first, so node
           3's later acquire goes through the full chain: requester ->
           manager -> holder -> requester (3 messages, 2 interrupts). Node 3
           is neither a lock manager nor the barrier manager, so nothing
           else perturbs its wait. *)
        (match Svm.Api.pid ctx with
        | 2 ->
            Svm.Api.lock ctx 5;
            Svm.Api.unlock ctx 5
        | 3 ->
            Svm.Api.compute ctx 10_000.;
            Svm.Api.lock ctx 5;
            Svm.Api.unlock ctx 5
        | _ -> ());
        Svm.Api.barrier ctx)
  in
  let lock_wait = r.Svm.Runtime.r_nodes.(3).Svm.Runtime.nr_breakdown.Svm.Stats.lock in
  check Alcotest.bool
    (Printf.sprintf "lock wait %.0f close to the paper's 1550us" lock_wait)
    true
    (lock_wait >= 1450. && lock_wait <= 1700.)

(* Lock handoff order under contention: every waiter eventually gets the
   lock; total acquisitions equal total requests. *)
let test_lock_throughput_under_contention () =
  List.iter
    (fun nprocs ->
      let r =
        run ~nprocs (fun ctx ->
            if Svm.Api.pid ctx = 0 then ignore (Svm.Api.malloc ctx ~name:"hits" 1);
            Svm.Api.barrier ctx;
            let hits = Svm.Api.root ctx "hits" in
            for _ = 1 to 5 do
              Svm.Api.lock ctx 3;
              Svm.Api.write_int ctx hits (Svm.Api.read_int ctx hits + 1);
              Svm.Api.unlock ctx 3
            done;
            Svm.Api.barrier ctx;
            check Alcotest.int "all acquisitions happened" (5 * Svm.Api.nprocs ctx)
              (Svm.Api.read_int ctx hits))
      in
      ignore r)
    [ 2; 5; 8 ]

(* A lock-wedged run's diagnosis lists every remotely acquired lock in
   ascending id order, each with its manager, last requester and the
   nodes whose state for it is not idle. *)
let test_watchdog_lock_chains () =
  match
    run ~nprocs:3 (fun ctx ->
        match Svm.Api.pid ctx with
        | 0 ->
            List.iter (Svm.Api.lock ctx) [ 70; 2; 9; 4 ];
            Svm.Api.unlock ctx 4;
            Svm.Api.barrier ctx
        | 1 ->
            Svm.Api.compute ctx 50_000.;
            Svm.Api.lock ctx 9
        | _ ->
            Svm.Api.compute ctx 60_000.;
            Svm.Api.lock ctx 70)
  with
  | _ -> Alcotest.fail "node 0 waits for a lock node 1 holds: the run must wedge"
  | exception Svm.System.Deadlock msg ->
      let locks =
        List.filter
          (fun l -> String.length l > 7 && String.sub l 0 7 = "  lock ")
          (String.split_on_char '\n' msg)
      in
      check
        Alcotest.(list string)
        "lock chains"
        [
          "  lock 2: manager 2, last requester 0 [node 0: held, token]";
          "  lock 9: manager 0, last requester 0 [node 0: acquire in flight; node 1: held, \
           token, forwards to node 0]";
          "  lock 70: manager 1, last requester 2 [node 0: held, token, forwards to node 2; \
           node 2: acquire in flight]";
        ]
        locks

(* The remote lock handoff's host allocation: minor words per remote
   acquire on a 2-node HLRC ping-pong, as the difference between two run
   lengths, so set-up cancels out. Node 1 starts half a period late; a
   third of the acquires are then remote, and the local re-acquires
   between them are counted in. With [rmw] each round adds one to a shared
   word under the lock, so every grant carries a write notice. The reading
   fails past [on_5_1] on OCaml 5.1, the compiler the pins were read on;
   another compiler may allocate otherwise in the stdlib and the effect
   handlers, so there it fails only past [elsewhere]. *)
let pin_handoff_words ~rmw ~on_5_1 ~elsewhere =
  let pingpong rounds =
    let before = Gc.minor_words () in
    let r =
      run (fun ctx ->
          if rmw then begin
            if Svm.Api.pid ctx = 0 then ignore (Svm.Api.malloc ctx ~name:"n" 1);
            Svm.Api.barrier ctx
          end;
          let n = if rmw then Svm.Api.root ctx "n" else 0 in
          if Svm.Api.pid ctx = 1 then Svm.Api.compute ctx 5_000.;
          for _ = 1 to rounds do
            Svm.Api.lock ctx 1;
            if rmw then Svm.Api.write_int ctx n (Svm.Api.read_int ctx n + 1);
            Svm.Api.unlock ctx 1;
            Svm.Api.compute ctx 10_000.
          done)
    in
    (Gc.minor_words () -. before, Svm.Runtime.sum r (fun c -> c.Svm.Stats.remote_acquires))
  in
  let words, acquires = pingpong 500 in
  let words', acquires' = pingpong 1000 in
  check Alcotest.int "remote acquires per 500 rounds" 334 (acquires' - acquires);
  let per_acquire = (words' -. words) /. float_of_int (acquires' - acquires) in
  let bound = if String.starts_with ~prefix:"5.1." Sys.ocaml_version then on_5_1 else elsewhere in
  if per_acquire > bound then
    Alcotest.failf "%.1f minor words per remote acquire, more than %.0f on OCaml %s" per_acquire
      bound Sys.ocaml_version

(* No write notices: on OCaml 5.1 it reads 190.3 words in the dev profile
   and 174.3 in release. The bound of 194 fails on 4 words more per remote
   acquire, such as the closure that eager RC's deferral built for every
   grant (about 6). Elsewhere the bound is the 293 words the
   hashtable-backed lock tables read on 5.1. *)
let test_handoff_allocation () = pin_handoff_words ~rmw:false ~on_5_1:194. ~elsewhere:293.

(* One write notice per grant: on OCaml 5.1 it reads 449.3 words in dev
   and 422.3 in release, where a [Some] per page-table entry and per
   installed copy read 450.3 and 423.3, page-keyed hashtables 468 and 441,
   and copying notices into per-node lists and sorting each batch 536 and
   509. The bound of 459 fails on 10 words more per remote acquire;
   elsewhere it is 536. *)
let test_notice_allocation () = pin_handoff_words ~rmw:true ~on_5_1:459. ~elsewhere:536.

(* A lock-only phase of 10^5 intervals that reaches a barrier only at its
   end: nodes 1 and 2 take turns adding to a shared word under one lock,
   and node 0, the barrier manager, sees none of it until the final
   barrier, whose arrivals carry every record each of them made (55,000
   and 54,999). The run must count every add, and walking the long chains
   must not recurse per record: the run gets a 512 KB stack, where a walk
   that recurses once per record overflows (it passes at 1.6 MB, and
   OCaml 5's default is 1 GB), while the run itself passes at 40 KB. *)
let test_deep_chain () =
  let rounds = 55_000 in
  let intervals = ref 0 and carried = ref 0 in
  let sink =
    Obs.Trace.create_sink ~capacity:0
      ~tap:(fun ev ->
        match ev.Obs.Trace.kind with
        | Obs.Trace.Interval_end _ -> incr intervals
        | Obs.Trace.Barrier_arrive { epoch = 1; intervals } -> carried := !carried + intervals
        | _ -> ())
      ()
  in
  let total = ref 0 in
  let limits = Gc.get () in
  Gc.set { limits with Gc.stack_limit = 65_536 };
  Fun.protect ~finally:(fun () -> Gc.set limits) @@ fun () ->
  ignore
    (Svm.Runtime.run ~sink (Svm.Config.make ~nprocs:3 Svm.Config.Hlrc) (fun ctx ->
         let me = Svm.Api.pid ctx in
         if me = 0 then ignore (Svm.Api.malloc ctx ~name:"n" 1);
         Svm.Api.barrier ctx;
         let n = Svm.Api.root ctx "n" in
         if me > 0 then begin
           if me = 2 then Svm.Api.compute ctx 5_000.;
           for _ = 1 to rounds do
             Svm.Api.lock ctx 1;
             Svm.Api.write_int ctx n (Svm.Api.read_int ctx n + 1);
             Svm.Api.unlock ctx 1;
             Svm.Api.compute ctx 10_000.
           done
         end;
         Svm.Api.barrier ctx;
         if me = 0 then total := Svm.Api.read_int ctx n));
  check Alcotest.int "every add counted" (2 * rounds) !total;
  if !intervals < 100_000 then Alcotest.failf "only %d intervals" !intervals;
  if !carried < 100_000 then Alcotest.failf "the final barrier carried only %d records" !carried

(* Lock ids run from 0 to Api.max_lock_id: an id outside is rejected
   before any table grows for it, and unlocking an id past this node's
   table is rejected without growing it to 2^20 slots (8 MB). *)
let test_lock_id_range () =
  ignore
    (run ~nprocs:1 (fun ctx ->
         List.iter
           (fun id ->
             match Svm.Api.lock ctx id with
             | () -> Alcotest.failf "lock %d must raise" id
             | exception Invalid_argument _ -> ())
           [ -1; Svm.Api.max_lock_id + 1; max_int ];
         let before = Gc.allocated_bytes () in
         (match Svm.Api.unlock ctx (Svm.Api.max_lock_id + 1) with
         | () -> Alcotest.fail "unlocking an id never taken must raise"
         | exception Invalid_argument _ -> ());
         if Gc.allocated_bytes () -. before > 1e6 then Alcotest.fail "unlock grew the lock table";
         Svm.Api.lock ctx Svm.Api.max_lock_id;
         Svm.Api.unlock ctx Svm.Api.max_lock_id))

let suite =
  [
    ("local reacquire is free", `Quick, test_local_reacquire_free);
    ("remote acquires counted", `Quick, test_remote_acquire_counted);
    ("mutual exclusion", `Quick, test_mutual_exclusion);
    ("barrier counts", `Quick, test_barrier_counts);
    ("barrier synchronizes time", `Quick, test_barrier_synchronizes_time);
    ("remote acquire cost (paper 4.3)", `Quick, test_remote_acquire_cost);
    ("lock throughput under contention", `Quick, test_lock_throughput_under_contention);
    ("watchdog lists lock chains in order", `Quick, test_watchdog_lock_chains);
    ("remote handoff allocation", `Quick, test_handoff_allocation);
    ("write-notice handoff allocation", `Quick, test_notice_allocation);
    ("deep write-notice chain", `Slow, test_deep_chain);
    ("lock ids out of range rejected", `Quick, test_lock_id_range);
  ]
