(* Core runtime semantics: allocation, reads/writes, timing, deadlock
   detection, determinism, report invariants. *)

let check = Alcotest.check

let run ?(nprocs = 2) ?(protocol = Svm.Config.Hlrc) app =
  Svm.Runtime.run (Svm.Config.make ~nprocs protocol) app

let test_malloc_and_roots () =
  let r =
    run ~nprocs:1 (fun ctx ->
        let a = Svm.Api.malloc ctx ~name:"a" 10 in
        let b = Svm.Api.malloc ctx ~name:"b" 10 in
        check Alcotest.bool "page aligned, disjoint" true (b >= a + 10);
        check Alcotest.int "root a" a (Svm.Api.root ctx "a");
        check Alcotest.int "root b" b (Svm.Api.root ctx "b"))
  in
  check Alcotest.bool "some shared memory" true (r.Svm.Runtime.r_shared_bytes > 0)

let test_missing_root () =
  ignore
    (run ~nprocs:1 (fun ctx ->
         try
           ignore (Svm.Api.root ctx "nope");
           Alcotest.fail "missing root must raise"
         with Invalid_argument _ -> ()))

let test_zero_initialized () =
  ignore
    (run ~nprocs:2 (fun ctx ->
         if Svm.Api.pid ctx = 0 then ignore (Svm.Api.malloc ctx ~name:"z" 100);
         Svm.Api.barrier ctx;
         let z = Svm.Api.root ctx "z" in
         for i = 0 to 99 do
           check (Alcotest.float 0.) "fresh memory is zero" 0. (Svm.Api.read ctx (z + i))
         done))

let test_read_write_roundtrip () =
  ignore
    (run ~nprocs:1 (fun ctx ->
         let a = Svm.Api.malloc ctx 64 in
         Svm.Api.write ctx a 3.25;
         Svm.Api.write_int ctx (a + 1) (-77);
         check (Alcotest.float 0.) "float" 3.25 (Svm.Api.read ctx a);
         check Alcotest.int "int" (-77) (Svm.Api.read_int ctx (a + 1))))

let test_pid_nprocs () =
  let seen = Array.make 3 false in
  ignore
    (run ~nprocs:3 (fun ctx ->
         check Alcotest.int "nprocs" 3 (Svm.Api.nprocs ctx);
         seen.(Svm.Api.pid ctx) <- true));
  check Alcotest.bool "all pids ran" true (Array.for_all (fun x -> x) seen)

let test_compute_advances_time () =
  let r =
    run ~nprocs:1 (fun ctx ->
        Svm.Api.start_timing ctx;
        Svm.Api.compute ctx 12345.)
  in
  check (Alcotest.float 1.) "elapsed equals compute" 12345. r.Svm.Runtime.r_elapsed

let test_deadlock_detected () =
  (* Process 1 never reaches the barrier count of process 0. *)
  let app ctx = if Svm.Api.pid ctx = 0 then Svm.Api.barrier ctx in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (try
     ignore (run ~nprocs:2 app);
     Alcotest.fail "mismatched barriers must deadlock"
   with Svm.System.Deadlock msg ->
     check Alcotest.bool "diagnosis names the barrier" true (contains msg "barrier"))

let test_unheld_unlock_rejected () =
  ignore
    (run ~nprocs:1 (fun ctx ->
         try
           Svm.Api.unlock ctx 3;
           Alcotest.fail "unlock without lock must raise"
         with Invalid_argument _ -> ()))

let test_determinism () =
  let app ctx =
    let me = Svm.Api.pid ctx in
    if me = 0 then ignore (Svm.Api.malloc ctx ~name:"x" 256);
    Svm.Api.barrier ctx;
    let x = Svm.Api.root ctx "x" in
    for i = 0 to 255 do
      if i mod Svm.Api.nprocs ctx = me then Svm.Api.write_int ctx (x + i) (i * me)
    done;
    Svm.Api.barrier ctx
  in
  let r1 = run ~nprocs:4 ~protocol:Svm.Config.Lrc app in
  let r2 = run ~nprocs:4 ~protocol:Svm.Config.Lrc app in
  check (Alcotest.float 0.) "same elapsed" r1.Svm.Runtime.r_elapsed r2.Svm.Runtime.r_elapsed;
  check Alcotest.int "same events" r1.Svm.Runtime.r_events r2.Svm.Runtime.r_events;
  check Alcotest.int "same messages" (Svm.Runtime.total_messages r1)
    (Svm.Runtime.total_messages r2)

(* The breakdown buckets must account for (almost exactly) the node's whole
   elapsed time. *)
let breakdown_covers_elapsed protocol =
  let app = (Apps.Registry.sor Apps.Registry.Test).Apps.Registry.body ~verify:false in
  let r = Svm.Runtime.run (Svm.Config.make ~nprocs:4 protocol) app in
  Array.iter
    (fun n ->
      let total = Svm.Stats.breakdown_total n.Svm.Runtime.nr_breakdown in
      let elapsed = n.Svm.Runtime.nr_elapsed in
      let drift = Float.abs (total -. elapsed) /. Float.max 1. elapsed in
      if drift > 0.02 then
        Alcotest.failf "node %d: breakdown %.0f vs elapsed %.0f (drift %.1f%%)"
          n.Svm.Runtime.nr_id total elapsed (100. *. drift))
    r.Svm.Runtime.r_nodes

let test_breakdown_covers_elapsed () =
  List.iter breakdown_covers_elapsed Svm.Config.all_protocols

let test_timing_window () =
  let r =
    run ~nprocs:2 (fun ctx ->
        Svm.Api.compute ctx 5000.;
        (* untimed prologue *)
        Svm.Api.barrier ctx;
        Svm.Api.start_timing ctx;
        Svm.Api.compute ctx 1000.;
        Svm.Api.barrier ctx)
  in
  check Alcotest.bool "prologue excluded" true (r.Svm.Runtime.r_elapsed < 2000.);
  Array.iter
    (fun n ->
      check Alcotest.int "counters cover the window only" 1
        n.Svm.Runtime.nr_counters.Svm.Stats.barriers)
    r.Svm.Runtime.r_nodes

let test_home_policies () =
  List.iter
    (fun policy ->
      let cfg = Svm.Config.make ~home_policy:policy ~nprocs:4 Svm.Config.Hlrc in
      let r =
        Svm.Runtime.run cfg (fun ctx ->
            if Svm.Api.pid ctx = 0 then begin
              let a = Svm.Api.malloc ctx ~name:"a" 8192 in
              for i = 0 to 8191 do
                Svm.Api.write_int ctx (a + i) i
              done
            end;
            Svm.Api.barrier ctx;
            let a = Svm.Api.root ctx "a" in
            let me = Svm.Api.pid ctx in
            for i = 0 to 8191 do
              if i mod 4 = me then
                check Alcotest.int "value visible" i (Svm.Api.read_int ctx (a + i))
            done;
            Svm.Api.barrier ctx)
      in
      ignore r)
    [ Svm.Config.Round_robin; Svm.Config.Block; Svm.Config.Allocator ]

(* The serving latencies' in-place sort against the stdlib's, bit for bit.
   Latencies are never NaN or -0.0, so neither is drawn (a -0.0 draw is
   folded into +0.0); duplicates and +0.0 are. The radix sort keys on the
   IEEE-754 bits, so the draws reach every digit: both signs, both
   infinities, the largest and the smallest magnitudes, and mantissas
   scaled over the whole exponent range. *)
let sort_value =
  let no_neg_zero x = if x = 0. then 0. else x in
  QCheck.Gen.(
    frequency
      [
        (4, map no_neg_zero (float_range (-1e6) 1e6));
        ( 2,
          oneofl
            [ 0.0; 1.0; 42.5; 1e9; infinity; neg_infinity; max_float; -.max_float; 5e-324;
              -5e-324 ] );
        (1, map float_of_int (int_bound 10));
        ( 4,
          map2
            (fun m e -> no_neg_zero (ldexp m e))
            (float_range (-1.) 1.) (int_range (-1074) 1023) );
      ])

let sorts_like_stdlib a =
  let expected = Array.copy a and sorted = Array.copy a in
  Array.sort Float.compare expected;
  Svm.Runtime.sort_floats sorted;
  Array.map Int64.bits_of_float sorted = Array.map Int64.bits_of_float expected

let prop_sort_floats =
  QCheck.Test.make ~name:"sort_floats matches Array.sort" ~count:200
    (QCheck.make QCheck.Gen.(array_size (int_bound 2000) sort_value))
    sorts_like_stdlib

(* An array longer than 2^16, so some digits' counts pass 16 bits, and
   the arrays of one value and of none. *)
let test_sort_floats_shapes () =
  let long =
    QCheck.Gen.(generate1 ~rand:(Random.State.make [| 7 |]) (array_size (return 70_000) sort_value))
  in
  List.iter
    (fun (what, a) -> check Alcotest.bool what true (sorts_like_stdlib a))
    [
      ("70,000 values", long);
      ("one value", [| -2.0 |]);
      ("none", [||]);
    ]

let suite =
  [
    ("malloc and roots", `Quick, test_malloc_and_roots);
    ("missing root", `Quick, test_missing_root);
    ("fresh memory is zero", `Quick, test_zero_initialized);
    ("read/write roundtrip", `Quick, test_read_write_roundtrip);
    ("pid and nprocs", `Quick, test_pid_nprocs);
    ("compute advances time", `Quick, test_compute_advances_time);
    ("deadlock detected", `Quick, test_deadlock_detected);
    ("unlock without lock", `Quick, test_unheld_unlock_rejected);
    ("determinism", `Quick, test_determinism);
    ("breakdown covers elapsed", `Quick, test_breakdown_covers_elapsed);
    ("timing window", `Quick, test_timing_window);
    ("home policies", `Quick, test_home_policies);
    QCheck_alcotest.to_alcotest prop_sort_floats;
    ("sort_floats on long and trivial arrays", `Quick, test_sort_floats_shapes);
  ]
