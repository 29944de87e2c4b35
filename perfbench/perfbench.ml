(* Worker process of the host-cost benchmark (run.py drives it).

   Each invocation does one thing and prints one JSON object on one line:

   - measure:  the measured [Svm.Runtime.run] (tracing off, ~verify:false),
               timed beside host-speed gauges ([Probe]), then [--setups]
               zero-work runs of the same configuration, each timed; the
               output check follows, outside the timed region;
   - verify:   a ~verify:true run, whose final-memory digest is the
               reference the other modes are checked against;
   - traced:   the set-up run, the measured run and the check under the
               SIGPROF sampler and Runtime_events: the per-layer profile;
   - capacity: a saturated kv run (every op arrives at once), giving the
               throughput the offered rate is compared with;
   - selftest: the tests of the sampler's attribution.

   run.py starts a fresh process for every measured run, so each one starts
   from a fresh heap, as an svm_run invocation does. *)

module J = Obs.Json

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let nums fields = List.map (fun (k, v) -> (k, J.Float v)) fields

let print_json fields = print_endline (J.to_string (J.Obj fields))

let vm_hwm_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* Host allocation of [f], from [Gc.quick_stat]: every word allocated, in
   the minor heap or directly in the major heap, is [minor + major -
   promoted]. *)
let with_gc_counts f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  let mwords get = (get g1 -. get g0) /. 1e6 in
  ( r,
    [
      ( "alloc_mwords",
        mwords (fun g -> g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words) );
      ("ocaml_gc.minor_mwords", mwords (fun g -> g.Gc.minor_words));
      ("ocaml_gc.promoted_mwords", mwords (fun g -> g.Gc.promoted_words));
      ( "ocaml_gc.major_collections",
        float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
    ] )

let digest r = Printf.sprintf "%016Lx" r.Svm.Runtime.r_mem_digest

(* The output check: the final memory equals the ~verify:true run's, every
   planned op completed, and the store kept up with the offered rate, so no
   backlog grew. *)
let check w r sim ~expect =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if digest r <> expect then fail "digest %s, reference %s" (digest r) expect;
  let planned = Workload.planned_ops w in
  if planned > 0 then begin
    let completed = int_of_float (List.assoc "ops_done" sim) in
    if completed <> planned then fail "%d ops completed, %d planned" completed planned;
    let rate = Workload.offered_rate w and got = List.assoc "sim_ops_per_s" sim in
    if Float.abs (got -. rate) > 0.01 *. rate then
      fail "throughput %.1f ops/s is not within 1%% of the offered %.0f" got rate
  end;
  List.rev !failures

let run_or_fail f = match f () with r -> Ok r | exception e -> Error (Printexc.to_string e)

let failures l = ("failures", J.List (List.map (fun s -> J.String s) l))

(* The checked result of a measured run: the op plan, the check's failures
   and, under "sim", every simulated figure. *)
let outcome w ~expect result =
  let plan =
    nums
      [
        ("ops_planned", float_of_int (Workload.planned_ops w));
        ("offered_ops_per_s", Workload.offered_rate w);
      ]
  in
  match result with
  | Ok r ->
      let sim = Workload.sim_metrics r in
      ("digest", J.String (digest r))
      :: failures (check w r sim ~expect)
      :: ("sim", J.Obj (nums sim))
      :: plan
  | Error e -> failures [ "exception: " ^ e ] :: plan

let full w ~seed () = Workload.run w ~seed ~size:Full ~verify:false

let floats l = J.List (List.map (fun t -> J.Float t) l)

(* With [probe], the host-speed gauges of [Probe]: two probes just before
   the measured run and two just after it (an untimed one first grows the
   fresh process's heap), and slices during it. The first zero-work run
   after the measured one runs 10-20% slower than the rest and is left out
   of [setups]. *)
let measure w ~seed ~setups ~probe ~expect =
  let probes () = if probe then List.init 2 (fun _ -> Probe.time ()) else [] in
  if probe then ignore (Probe.time ());
  let before = probes () in
  let run () = with_gc_counts (fun () -> run_or_fail (full w ~seed)) in
  let ((result, gc), slices), wall =
    time (fun () -> if probe then Probe.during run else (run (), []))
  in
  let peak = vm_hwm_mb () in
  let after = probes () in
  let setup () =
    Gc.compact ();
    snd (time (fun () -> Workload.run w ~seed ~size:Empty ~verify:false))
  in
  if setups > 0 then ignore (setup ());
  let setup_times = List.init setups (fun _ -> setup ()) in
  print_json
    (nums [ ("wall_s", wall); ("peak_rss_mb", peak) ]
    @ [ ("setup_s", floats setup_times); ("probe_before_s", floats before) ]
    @ [ ("probe_after_s", floats after); ("slice_s", floats slices) ]
    @ [ ("host", J.Obj (nums gc)) ]
    @ outcome w ~expect result)

let verify w ~seed =
  match run_or_fail (fun () -> Workload.run w ~seed ~size:Full ~verify:true) with
  | Ok r -> print_json [ ("digest", J.String (digest r)); failures [] ]
  | Error e -> print_json [ failures [ "exception: " ^ e ] ]

let traced w ~seed ~expect ~trace_out =
  Sampler.start ();
  Sampler.span "setup" (fun () -> ignore (Workload.run w ~seed ~size:Empty ~verify:false));
  let result, gc =
    Sampler.span "measured" (fun () -> with_gc_counts (fun () -> run_or_fail (full w ~seed)))
  in
  let checked = Sampler.span "check" (fun () -> outcome w ~expect result) in
  Sampler.stop ();
  let p = Sampler.profile "measured" in
  if trace_out <> "" then Sampler.write_trace trace_out;
  let profile =
    [
      ("traced.wall_s", p.wall_s);
      ("traced.lost_events", float_of_int p.lost);
      ("ocaml_gc.minor_s", p.minor_s);
      ("ocaml_gc.major_s", p.major_s);
    ]
  in
  let samples = List.map (fun (l, n) -> (Sampler.layer_name l, J.Int n)) p.counts in
  print_json
    ([ ("profile", J.Obj (nums profile)); ("samples", J.Obj samples); ("host", J.Obj (nums gc)) ]
    @ checked)

let capacity w ~seed =
  let r = Workload.run w ~seed ~size:Saturated ~verify:false in
  print_json
    (nums
       [
         ("offered_ops_per_s", Workload.offered_rate w);
         ("saturated_ops_per_s", List.assoc "sim_ops_per_s" (Workload.sim_metrics r));
       ])

(* --- tests of the sampler ------------------------------------------- *)

let selftest () =
  let failed = ref 0 in
  let expect what ok =
    Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failed
  in
  let open Sampler in
  expect "stdlib frames are charged to their nearest lib/ caller"
    (attribute ~post_gc:false
       [
         Some "perfbench/sampler.ml";
         Some "hashtbl.ml";
         None;
         Some "lib/core/system.ml";
         Some "lib/core/api.ml";
       ]
    = System);
  expect "a sample right after a GC slice is charged to ocaml_gc"
    (attribute ~post_gc:true [ Some "lib/core/api.ml" ] = Ocaml_gc);
  expect "a sample within 10 us of a slice's end follows it; one later does not"
    (after_gc ~last_end:(Some 5_000_000L) 5_004_000L
    && not (after_gc ~last_end:(Some 5_000_000L) 5_020_000L));
  expect "a sample before the first GC slice does not follow one"
    (not (after_gc ~last_end:None 4_000L));
  expect "a stack without lib/ frames is charged to other"
    (attribute ~post_gc:false [ Some "list.ml"; None; Some "perfbench/perfbench.ml" ] = Other);
  expect "the workload's own code is one layer"
    (List.for_all
       (fun f -> layer_of_file f = Some Apps)
       [ "lib/apps/kvstore.ml"; "lib/harness/traffic.ml"; "lib/sim/rng.ml" ]);
  expect "every library file a run executes has a layer"
    (List.for_all
       (fun dir ->
         Sys.readdir ("lib/" ^ dir)
         |> Array.for_all (fun f ->
                (not (Filename.check_suffix f ".ml"))
                || layer_of_file ("lib/" ^ dir ^ "/" ^ f) <> None))
       [ "apps"; "core"; "machine"; "mem"; "obs"; "proto"; "sim" ]);
  (* A live profile of an allocation-heavy loop outside lib/: every sample
     in the span is charged exactly once, so the shares sum to 100%, and
     the samples the GC delayed land in ocaml_gc, in proportion to the GC
     time Runtime_events measured, not in the allocating loop. *)
  start ();
  let keep = ref [] in
  span "gc-heavy" (fun () ->
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < 0.8 do
        keep := List.init 1000 (fun i -> ref i) :: (if List.length !keep > 200 then [] else !keep)
      done);
  stop ();
  let p = profile "gc-heavy" in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 p.counts in
  let share l = float_of_int (List.assoc l p.counts) /. float_of_int total in
  let gc_share = (p.minor_s +. p.major_s) /. p.wall_s in
  Printf.printf "     %d samples, %.1f%% in ocaml_gc; GC slices cover %.1f%% of the span\n" total
    (100. *. share Ocaml_gc) (100. *. gc_share);
  expect "shares sum to 100%"
    (total > 100
    && Float.abs (List.fold_left (fun acc l -> acc +. share l) 0. layers -. 1.) < 1e-9);
  expect "post-GC samples go to ocaml_gc, as many as the GC time"
    (share Ocaml_gc > 0. && Float.abs (share Ocaml_gc -. gc_share) < 0.1);
  expect "no runtime events were lost" (p.lost = 0);
  exit (if !failed = 0 then 0 else 1)

let () =
  let workload = ref "" and seed = ref 11 and setups = ref 5 and probe = ref false in
  let expect = ref "" and trace_out = ref "" and mode = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME sor-lrc16 | kv-mixed | kv-read");
      ("--seed", Arg.Set_int seed, "N workload seed (the app's seed field)");
      ("--setups", Arg.Set_int setups, "K zero-work runs timed after the measured run");
      ("--probe", Arg.Set probe, " gauge the host's speed beside the measured run");
      ("--expect-digest", Arg.Set_string expect, "HEX reference final-memory digest");
      ("--trace-out", Arg.Set_string trace_out, "FILE where the traced run writes its spans");
    ]
  in
  let usage = "perfbench.exe (measure|verify|traced|capacity|selftest) [options]" in
  Arg.parse spec (fun m -> mode := m) usage;
  let w () =
    match Workload.of_name !workload with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench.exe: unknown workload " ^ !workload);
        exit 2
  in
  match !mode with
  | "measure" -> measure (w ()) ~seed:!seed ~setups:!setups ~probe:!probe ~expect:!expect
  | "verify" -> verify (w ()) ~seed:!seed
  | "traced" -> traced (w ()) ~seed:!seed ~expect:!expect ~trace_out:!trace_out
  | "capacity" -> capacity (w ()) ~seed:!seed
  | "selftest" -> selftest ()
  | m ->
      prerr_endline (usage ^ "\nunknown mode " ^ m);
      exit 2
