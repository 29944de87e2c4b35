(* Direct tests of the System primitives: message FIFO channels, service
   accounting, allocation, and configuration plumbing. *)

let check = Alcotest.check

let mk ?(nprocs = 4) ?(protocol = Svm.Config.Hlrc) () =
  Svm.System.create (Svm.Config.make ~nprocs protocol)

let test_channels_are_fifo () =
  (* A large message sent first must not be overtaken by a small one sent
     just after on the same channel, despite the smaller transfer time. *)
  let sys = mk () in
  let src = sys.Svm.System.nodes.(0) in
  let log = ref [] in
  Svm.System.send sys ~src ~dst:1 ~at:0. ~bytes:1_000_000 ~update:0 (fun at ->
      log := ("big", at) :: !log);
  Svm.System.send sys ~src ~dst:1 ~at:1. ~bytes:0 ~update:0 (fun at ->
      log := ("small", at) :: !log);
  ignore (Sim.Engine.run sys.Svm.System.engine);
  match List.rev !log with
  | [ ("big", t1); ("small", t2) ] ->
      check Alcotest.bool "no overtaking" true (t2 > t1)
  | other -> Alcotest.failf "unexpected order (%d events)" (List.length other)

(* A message lost because its receiver died on the wire is charged to the
   sender's counter record as it is when the message lands, since the
   timing window (Api.start_timing) may have replaced it since the send. *)
let test_loss_counted_at_arrival () =
  let sys = mk () in
  let src = sys.Svm.System.nodes.(0) in
  Svm.System.send sys ~src ~dst:1 ~at:0. ~bytes:64 ~update:0 (fun _ -> ());
  src.Svm.System.stats.Svm.Stats.c <- Svm.Stats.counters_zero ();
  Svm.System.kill_node sys ~node:1 ~time:0.;
  ignore (Sim.Engine.run sys.Svm.System.engine);
  check Alcotest.int "the loss is in the current record" 1
    src.Svm.System.stats.Svm.Stats.c.Svm.Stats.msg_peer_dead

let test_distinct_channels_can_overtake () =
  (* ...but messages to different destinations are independent. *)
  let sys = mk () in
  let src = sys.Svm.System.nodes.(0) in
  let log = ref [] in
  Svm.System.send sys ~src ~dst:1 ~at:0. ~bytes:1_000_000 ~update:0 (fun _ ->
      log := "big" :: !log);
  Svm.System.send sys ~src ~dst:2 ~at:1. ~bytes:0 ~update:0 (fun _ -> log := "small" :: !log);
  ignore (Sim.Engine.run sys.Svm.System.engine);
  check Alcotest.(list string) "small wins across channels" [ "small"; "big" ] (List.rev !log)

let test_loopback_free_and_uncounted () =
  let sys = mk () in
  let src = sys.Svm.System.nodes.(2) in
  let arrived = ref (-1.) in
  Svm.System.send sys ~src ~dst:2 ~at:5. ~bytes:8192 ~update:8192 (fun at -> arrived := at);
  ignore (Sim.Engine.run sys.Svm.System.engine);
  check (Alcotest.float 1e-9) "immediate" 5. !arrived;
  check Alcotest.int "not counted as a message" 0 src.Svm.System.stats.Svm.Stats.c.Svm.Stats.messages

let test_traffic_split () =
  let sys = mk () in
  let src = sys.Svm.System.nodes.(0) in
  Svm.System.send sys ~src ~dst:1 ~at:0. ~bytes:1000 ~update:600 (fun _ -> ());
  ignore (Sim.Engine.run sys.Svm.System.engine);
  let c = src.Svm.System.stats.Svm.Stats.c in
  check Alcotest.int "update bytes" 600 c.Svm.Stats.update_bytes;
  check Alcotest.int "protocol bytes" 400 c.Svm.Stats.protocol_bytes;
  check Alcotest.int "one message" 1 c.Svm.Stats.messages

let test_malloc_layout () =
  let sys = mk () in
  let node = sys.Svm.System.nodes.(0) in
  let a = Svm.System.malloc sys node 10 in
  let b = Svm.System.malloc sys node 2000 in
  let c = Svm.System.malloc sys node 1 in
  check Alcotest.int "first at zero" 0 a;
  check Alcotest.int "second page-aligned" 1024 b;
  check Alcotest.int "third skips two pages" (1024 * 3) c;
  check Alcotest.int "shared bytes counted" ((1024 * 3 + 1) * 8) (Svm.System.shared_bytes sys)

let test_home_maps_respected () =
  let sys = mk () in
  let node = sys.Svm.System.nodes.(0) in
  let base = Svm.System.malloc sys node ~home_map:(fun i -> 3 - (i mod 4)) (4 * 1024) in
  let page0 = base / 1024 in
  check Alcotest.int "page 0 home" 3 (Svm.System.home_of sys page0);
  check Alcotest.int "page 2 home" 1 (Svm.System.home_of sys (page0 + 2))

let test_protocol_predicates () =
  let open Svm.Config in
  List.iter
    (fun (p, hb, ov) ->
      check Alcotest.bool (protocol_name p ^ " home_based") hb (home_based p);
      check Alcotest.bool (protocol_name p ^ " overlapped") ov (overlapped p))
    [
      (Lrc, false, false);
      (Olrc, false, true);
      (Hlrc, true, false);
      (Ohlrc, true, true);
      (Aurc, true, false);
      (Rc, false, false);
    ]

let test_protocol_string_roundtrip () =
  List.iter
    (fun p ->
      match Svm.Config.protocol_of_string (Svm.Config.protocol_name p) with
      | Some p' -> check Alcotest.bool "roundtrip" true (p = p')
      | None -> Alcotest.failf "%s does not parse" (Svm.Config.protocol_name p))
    Svm.Config.extended_protocols;
  check Alcotest.bool "garbage rejected" true (Svm.Config.protocol_of_string "xyz" = None)

let test_serve_placement () =
  (* Overlapped systems serve on the co-processor; non-overlapped ones on
     the compute processor (visible through the interrupt counter). *)
  let probe protocol =
    let sys = mk ~protocol () in
    let n = sys.Svm.System.nodes.(1) in
    ignore (Svm.System.serve sys n ~arrival:0. ~cost:10.);
    (n.Svm.System.mach.Machine.Node.interrupts, n.Svm.System.mach.Machine.Node.coproc_requests)
  in
  check Alcotest.(pair int int) "HLRC on compute" (1, 0) (probe Svm.Config.Hlrc);
  check Alcotest.(pair int int) "OHLRC on coproc" (0, 1) (probe Svm.Config.Ohlrc)

(* A store allocates nothing, whether its page's written-word log holds
   (a twinned page, written fewer times than the log has slots) or is
   saturated (a page without a twin). The values are boxed beforehand, so
   passing one allocates nothing. *)
let test_write_allocation_free () =
  let sys = mk ~nprocs:2 () in
  let node = sys.Svm.System.nodes.(0) in
  let ctx = Svm.Api.make_ctx sys node in
  let writable page ~twin =
    let e = Mem.Page_table.ensure node.Svm.System.pt page in
    ignore (Mem.Page_table.attach_copy node.Svm.System.pt e);
    e.Mem.Page_table.prot <- Mem.Page_table.Read_write;
    if twin then Mem.Page_table.make_twin e;
    e
  in
  let logged = writable 0 ~twin:true and saturated = writable 1 ~twin:false in
  let values = Array.init 100_000 (fun i -> ref (float_of_int i)) in
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let overhead = minor_words (fun () -> ()) in
  let stores ~page n =
    let base = page * Svm.Api.page_words ctx in
    minor_words (fun () ->
        for i = 0 to n - 1 do
          Svm.Api.write ctx (base + (i land 7)) !(values.(i))
        done)
    -. overhead
  in
  check (Alcotest.float 0.) "minor words for 15 logged stores" 0. (stores ~page:0 15);
  check Alcotest.int "the log has one slot left" 1 logged.Mem.Page_table.log_free;
  check (Alcotest.float 0.) "minor words for 100k saturated stores" 0.
    (stores ~page:1 (Array.length values));
  check Alcotest.int "the log stays saturated" 0 saturated.Mem.Page_table.log_free

let prop_malloc_disjoint =
  QCheck.Test.make ~name:"allocations never overlap" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 10) (int_range 1 5000))
    (fun sizes ->
      let sys = mk () in
      let node = sys.Svm.System.nodes.(0) in
      let spans = List.map (fun w -> (Svm.System.malloc sys node w, w)) sizes in
      let rec disjoint = function
        | (a, wa) :: ((b, _) :: _ as rest) -> a + wa <= b && disjoint rest
        | _ -> true
      in
      disjoint spans)

let suite =
  [
    ("channels are FIFO", `Quick, test_channels_are_fifo);
    ("a loss is counted when it lands", `Quick, test_loss_counted_at_arrival);
    ("distinct channels overtake", `Quick, test_distinct_channels_can_overtake);
    ("loopback is free", `Quick, test_loopback_free_and_uncounted);
    ("traffic split", `Quick, test_traffic_split);
    ("malloc layout", `Quick, test_malloc_layout);
    ("home maps respected", `Quick, test_home_maps_respected);
    ("protocol predicates", `Quick, test_protocol_predicates);
    ("protocol string roundtrip", `Quick, test_protocol_string_roundtrip);
    ("service placement", `Quick, test_serve_placement);
    ("api write allocation-free", `Quick, test_write_allocation_free);
    QCheck_alcotest.to_alcotest prop_malloc_disjoint;
  ]
