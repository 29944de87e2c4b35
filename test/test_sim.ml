(* Unit and property tests for the discrete-event substrate: the engine's
   event heap, RNG and engine. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Heap: the engine's pending events, pushed with [schedule] and popped
   with [step]. Each event logs the time it ran at and its payload. *)

let push_all e log pairs =
  List.iter
    (fun (at, v) -> Sim.Engine.schedule e ~at (fun () -> log := (Sim.Engine.now e, v) :: !log))
    pairs

(* Steps until the heap is empty; returns what ran, in order. *)
let drain e log =
  while Sim.Engine.step e do
    ()
  done;
  List.rev !log

let test_heap_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  push_all e log [ (3., "c"); (1., "a"); (2., "b") ];
  let pop () =
    check Alcotest.bool "popped" true (Sim.Engine.step e);
    List.hd !log
  in
  check Alcotest.(pair (float 0.) string) "min" (1., "a") (pop ());
  check Alcotest.(pair (float 0.) string) "next" (2., "b") (pop ());
  check Alcotest.(pair (float 0.) string) "last" (3., "c") (pop ());
  check Alcotest.int "empty" 0 (Sim.Engine.pending e)

let test_heap_fifo_ties () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  push_all e log (List.map (fun v -> (5., v)) [ 1; 2; 3; 4 ]);
  check Alcotest.(list int) "insertion order on equal keys" [ 1; 2; 3; 4 ]
    (List.map snd (drain e log))

(* Popping an empty heap is a [step] that returns [false]: nothing runs
   and the clock stays where the last event left it. A heap emptied by
   its last pop takes new events. *)
let test_heap_empty_pop () =
  let e = Sim.Engine.create () in
  check Alcotest.bool "pop empty" false (Sim.Engine.step e);
  check (Alcotest.float 0.) "clock untouched" 0. (Sim.Engine.now e);
  Sim.Engine.schedule e ~at:4. (fun () -> ());
  check Alcotest.bool "pop the only event" true (Sim.Engine.step e);
  check Alcotest.bool "pop emptied" false (Sim.Engine.step e);
  check (Alcotest.float 0.) "clock stays at the last event" 4. (Sim.Engine.now e);
  Sim.Engine.schedule e ~at:6. (fun () -> ());
  check Alcotest.bool "pop after refill" true (Sim.Engine.step e);
  check (Alcotest.float 0.) "clock at the refill" 6. (Sim.Engine.now e);
  check Alcotest.int "executed" 2 (Sim.Engine.executed e)

(* Popped thunks must become unreachable: the pending set of a long
   simulation stays small, and a vacated slot that keeps its closure alive
   is a space leak proportional to everything those closures capture. *)
let test_heap_releases_payloads () =
  let e = Sim.Engine.create ~capacity:4 () in
  let live = Weak.create 20 in
  let ran = ref 0 in
  for i = 0 to 19 do
    let thunk () = ran := !ran + i in
    Weak.set live i (Some thunk);
    Sim.Engine.schedule e ~at:(float_of_int (i mod 5)) thunk
  done;
  for _ = 1 to 10 do
    ignore (Sim.Engine.step e)
  done;
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to 19 do
    if Weak.check live i then incr alive
  done;
  (* Keep the engine itself reachable until after the scan, or the GC is
     free to collect it — thunks included — before the full_major. *)
  check Alcotest.int "unexecuted thunks still pending" 10
    (Sim.Engine.pending (Sys.opaque_identity e));
  check Alcotest.int "only unexecuted thunks stay reachable" 10 !alive;
  ignore (Sim.Engine.run e);
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to 19 do
    if Weak.check live i then incr alive
  done;
  check Alcotest.int "a drained engine holds no thunk" 0
    (Sim.Engine.pending (Sys.opaque_identity e) + !alive)

(* Builds the thunk out of line, so no stack slot of the test keeps it. *)
let[@inline never] schedule_tracked e live i ~at =
  let payload = ref i in
  let thunk () = incr payload in
  Weak.set live i (Some thunk);
  Sim.Engine.schedule e ~at thunk

(* [step] drops its slot's thunk before the event runs: once it has run,
   the engine holds nothing of it, not even in the slot it freed. *)
let test_popped_thunk_not_retained () =
  let e = Sim.Engine.create ~capacity:2 () in
  let live = Weak.create 2 in
  schedule_tracked e live 0 ~at:1.;
  schedule_tracked e live 1 ~at:2.;
  check Alcotest.bool "step" true (Sim.Engine.step e);
  Gc.full_major ();
  check Alcotest.bool "popped thunk collected" false (Weak.check live 0);
  check Alcotest.bool "pending thunk kept" true (Weak.check live 1);
  check Alcotest.int "one pending" 1 (Sim.Engine.pending (Sys.opaque_identity e))

(* An event's slot is free while it runs, so an event that schedules
   reuses it at once, and an engine created with one slot grows while
   events are pending. Either way the run is the stable sort by time of
   everything scheduled, and each thunk runs exactly once. *)
let test_engine_slot_reuse_and_growth () =
  let e = Sim.Engine.create ~capacity:1 () in
  let scheduled = ref [] and ran = ref [] and next_id = ref 0 in
  let rec schedule at fanout =
    let id = !next_id in
    incr next_id;
    scheduled := (at, id) :: !scheduled;
    Sim.Engine.schedule e ~at (fun () ->
        ran := (Sim.Engine.now e, id) :: !ran;
        let now = Sim.Engine.now e in
        (* First into the slot this event just freed, at its own time, then
           enough later ones to outgrow the slab mid-run. *)
        for k = 0 to fanout - 1 do
          schedule (now +. float_of_int (k mod 3)) (fanout - 1)
        done)
  in
  schedule 5. 4;
  schedule 5. 3;
  schedule 0. 4;
  ignore (Sim.Engine.run e);
  let by_time (a, _) (b, _) = Float.compare a b in
  check Alcotest.int "every event ran once" !next_id (List.length !ran);
  check
    Alcotest.(list (pair (float 0.) int))
    "stable order" (List.stable_sort by_time (List.rev !scheduled)) (List.rev !ran)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun keys ->
      let e = Sim.Engine.create () in
      let log = ref [] in
      push_all e log (List.mapi (fun i k -> (k, i)) keys);
      let rec sorted last = function
        | (k, _) :: rest -> k >= last && sorted k rest
        | [] -> true
      in
      sorted neg_infinity (drain e log))

let prop_heap_conserves =
  QCheck.Test.make ~name:"heap returns every pushed element once" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let e = Sim.Engine.create () in
      let log = ref [] in
      push_all e log (List.map (fun x -> (float_of_int (x mod 7), x)) xs);
      List.sort compare (List.map snd (drain e log)) = List.sort compare xs)

(* Stronger than the two properties above combined: ties must come out in
   insertion order, i.e. a full drain IS List.stable_sort by key. *)
let prop_heap_stable_sort =
  QCheck.Test.make ~name:"heap drain is the stable sort by key" ~count:200
    QCheck.(list (int_bound 10))
    (fun keys ->
      let e = Sim.Engine.create () in
      let log = ref [] in
      let pairs = List.mapi (fun i k -> (float_of_int k, i)) keys in
      push_all e log pairs;
      drain e log = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) pairs)

(* ------------------------------------------------------------------ *)
(* RNG *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:7 and b = Sim.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:2 in
  let xs = List.init 20 (fun _ -> Sim.Rng.bits64 a) in
  let ys = List.init 20 (fun _ -> Sim.Rng.bits64 b) in
  check Alcotest.bool "different streams" true (xs <> ys)

let test_rng_split_independent () =
  let a = Sim.Rng.create ~seed:3 in
  let b = Sim.Rng.split a in
  let xs = List.init 20 (fun _ -> Sim.Rng.bits64 a) in
  let ys = List.init 20 (fun _ -> Sim.Rng.bits64 b) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let prop_rng_int_range =
  QCheck.Test.make ~name:"rng int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Sim.Rng.create ~seed in
      let x = Sim.Rng.int r bound in
      x >= 0 && x < bound)

let prop_rng_float_range =
  QCheck.Test.make ~name:"rng float stays in [0, bound)" ~count:500 QCheck.small_int
    (fun seed ->
      let r = Sim.Rng.create ~seed in
      let x = Sim.Rng.float r 1.0 in
      x >= 0.0 && x < 1.0)

let test_rng_mean () =
  let r = Sim.Rng.create ~seed:11 in
  let n = 10000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.float r 1.0
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "mean near 0.5" true (mean > 0.47 && mean < 0.53)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~at:3. (fun () -> log := 3 :: !log);
  Sim.Engine.schedule e ~at:1. (fun () -> log := 1 :: !log);
  Sim.Engine.schedule e ~at:2. (fun () -> log := 2 :: !log);
  ignore (Sim.Engine.run e);
  check Alcotest.(list int) "timestamp order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_now_advances () =
  let e = Sim.Engine.create () in
  let seen = ref [] in
  Sim.Engine.schedule e ~at:5. (fun () -> seen := Sim.Engine.now e :: !seen);
  Sim.Engine.schedule e ~at:10. (fun () -> seen := Sim.Engine.now e :: !seen);
  let final = Sim.Engine.run e in
  check Alcotest.(list (float 0.)) "now at each event" [ 5.; 10. ] (List.rev !seen);
  check (Alcotest.float 0.) "final time" 10. final

let test_engine_nested_scheduling () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~at:1. (fun () ->
      log := "a" :: !log;
      Sim.Engine.schedule e ~at:2. (fun () -> log := "b" :: !log));
  ignore (Sim.Engine.run e);
  check Alcotest.(list string) "nested" [ "a"; "b" ] (List.rev !log)

let test_engine_past_rejected () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~at:10. (fun () ->
      try
        Sim.Engine.schedule e ~at:1. (fun () -> ());
        Alcotest.fail "scheduling in the past must raise"
      with Invalid_argument _ -> ());
  ignore (Sim.Engine.run e)

let test_engine_equal_times_fifo () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    Sim.Engine.schedule e ~at:7. (fun () -> log := i :: !log)
  done;
  ignore (Sim.Engine.run e);
  check Alcotest.(list int) "fifo at equal time" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_engine_step_and_counts () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~at:1. (fun () -> ());
  Sim.Engine.schedule e ~at:2. (fun () -> ());
  check Alcotest.int "pending" 2 (Sim.Engine.pending e);
  check Alcotest.bool "step one" true (Sim.Engine.step e);
  check Alcotest.int "executed" 1 (Sim.Engine.executed e);
  check Alcotest.bool "step two" true (Sim.Engine.step e);
  check Alcotest.bool "drained" false (Sim.Engine.step e)

let test_engine_rejects_nan () =
  let e = Sim.Engine.create () in
  Alcotest.check_raises "NaN time" (Invalid_argument "Engine.schedule: at is NaN") (fun () ->
      Sim.Engine.schedule e ~at:Float.nan (fun () -> ()));
  check Alcotest.int "nothing pending" 0 (Sim.Engine.pending e)

(* Event times that exercise every shape of the heap: dense clusters
   (ties), wide spans, and enough events to grow the arrays. *)
let times_gen =
  QCheck.(
    list_of_size Gen.(int_bound 300)
      (oneof
         [
           float_bound_inclusive 10.;
           float_bound_inclusive 1000.;
           map (fun i -> float_of_int i *. 1e6) (int_bound 50);
           always 42.;
         ]))

(* Every schedule call, from outside [run] or from inside a running event,
   is logged with its time; the run must execute the log stably sorted by
   time. Each executed event takes the next delay, if any is left, and
   schedules a follow-up that much after [now]. *)
let prop_engine_stable_sort =
  QCheck.Test.make ~name:"engine runs the stable sort by time" ~count:300
    QCheck.(pair times_gen times_gen)
    (fun (times, delays) ->
      let e = Sim.Engine.create () in
      let scheduled = ref [] and ran = ref [] in
      let delays = ref delays and next_id = ref 0 in
      let rec schedule at =
        let id = !next_id in
        incr next_id;
        scheduled := (at, id) :: !scheduled;
        Sim.Engine.schedule e ~at (fun () ->
            ran := (Sim.Engine.now e, id) :: !ran;
            match !delays with
            | d :: rest ->
                delays := rest;
                schedule (Sim.Engine.now e +. d)
            | [] -> ())
      in
      List.iter schedule times;
      ignore (Sim.Engine.run e);
      let by_time (a, _) (b, _) = Float.compare a b in
      List.rev !ran = List.stable_sort by_time (List.rev !scheduled))

(* In steady state a schedule and a step allocate nothing: no entry
   record, no boxed time, no option, no result tuple, no boxed [now].
   The times are boxed beforehand, so passing one allocates nothing. *)
let test_engine_allocation_free () =
  let e = Sim.Engine.create () in
  let event () = () in
  for i = 1 to 8 do
    Sim.Engine.schedule e ~at:(float_of_int i) event
  done;
  let times = Array.init 100_000 (fun i -> ref (float_of_int (i + 9))) in
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let overhead = minor_words (fun () -> ()) in
  let words =
    minor_words (fun () ->
        for i = 0 to Array.length times - 1 do
          Sim.Engine.schedule e ~at:!(times.(i)) event;
          ignore (Sim.Engine.step e)
        done)
  in
  check (Alcotest.float 0.) "minor words for 100k schedule + step" 0. (words -. overhead);
  check Alcotest.int "still 8 pending" 8 (Sim.Engine.pending e)

let suite =
  [
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap fifo ties", `Quick, test_heap_fifo_ties);
    ("heap empty pop", `Quick, test_heap_empty_pop);
    ("heap releases payloads", `Quick, test_heap_releases_payloads);
    ("popped thunk not retained", `Quick, test_popped_thunk_not_retained);
    QCheck_alcotest.to_alcotest prop_heap_sorted;
    QCheck_alcotest.to_alcotest prop_heap_conserves;
    QCheck_alcotest.to_alcotest prop_heap_stable_sort;
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng split independent", `Quick, test_rng_split_independent);
    QCheck_alcotest.to_alcotest prop_rng_int_range;
    QCheck_alcotest.to_alcotest prop_rng_float_range;
    ("rng mean", `Quick, test_rng_mean);
    ("engine ordering", `Quick, test_engine_ordering);
    ("engine now advances", `Quick, test_engine_now_advances);
    ("engine nested scheduling", `Quick, test_engine_nested_scheduling);
    ("engine rejects past", `Quick, test_engine_past_rejected);
    ("engine fifo at equal times", `Quick, test_engine_equal_times_fifo);
    ("engine step and counts", `Quick, test_engine_step_and_counts);
    ("engine rejects NaN time", `Quick, test_engine_rejects_nan);
    QCheck_alcotest.to_alcotest prop_engine_stable_sort;
    ("engine slot reuse and growth keep the order", `Quick, test_engine_slot_reuse_and_growth);
    ("engine allocates nothing per event", `Quick, test_engine_allocation_free);
  ]
