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

(* A page no malloc registered reads the directory's defaults, from the
   one record every run shares: a write that reaches it would show on
   every other such page, here and in later runs. Page 5 lies inside the
   directory once the allocation grew it, page 1000 past its end; page 7
   gets a record of its own at its first write. *)
let test_unregistered_page_defaults () =
  let sys = Svm.System.create (Svm.Config.make ~replicas:2 ~nprocs:4 Svm.Config.Lrc) in
  let defaults when_ page =
    let name what = Printf.sprintf "page %d %s, %s" page when_ what in
    check Alcotest.int (name "home") (page mod 4) (Svm.System.home_of sys page);
    check Alcotest.int (name "keeper: the allocator, 0") 0 (Svm.System.keeper_of sys page);
    check Alcotest.int (name "epoch") 0 (Svm.System.epoch_of sys page);
    check Alcotest.bool (name "no replica ranks") true (Svm.System.replica_ranks sys page = None);
    check Alcotest.bool (name "not scratch") false (Svm.System.is_scratch sys page)
  in
  List.iter (defaults "before") [ 5; 1000 ];
  let node = sys.Svm.System.nodes.(2) in
  let page = Svm.System.malloc sys node ~scratch:true (2 * 1024) / 1024 in
  Svm.System.bump_epoch sys page;
  Svm.System.bump_epoch sys 7;
  Svm.System.register_copy sys node page;
  let d = Svm.System.dir_entry sys (page + 1) in
  d.Svm.System.home <- 3;
  d.Svm.System.keeper <- 1;
  d.Svm.System.migration_prev <- Some 1;
  d.Svm.System.failover_at <- Some 7.;
  check Alcotest.int "registered: keeper is the allocator" 2 (Svm.System.keeper_of sys page);
  check Alcotest.int "registered: epoch bumped" 1 (Svm.System.epoch_of sys page);
  check Alcotest.bool "registered: scratch" true (Svm.System.is_scratch sys page);
  check Alcotest.(option (array int)) "registered: replica ranks" (Some [| 0; 1 |])
    (Svm.System.replica_ranks sys page);
  check Alcotest.int "written: home" 3 (Svm.System.home_of sys (page + 1));
  check Alcotest.int "unregistered, written: epoch" 1 (Svm.System.epoch_of sys 7);
  check Alcotest.bool "only the writes' own page reads them" true
    (Svm.System.dir sys 5 == Svm.System.no_page);
  List.iter (defaults "after") [ 5; 1000 ]

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
   passing one allocates nothing. [read_int] and [write_int] allocate
   nothing either: the float they load or store never leaves [Api]. *)
let test_write_allocation_free () =
  let sys = mk ~nprocs:2 () in
  let node = sys.Svm.System.nodes.(0) in
  let ctx = Svm.Api.make_ctx sys node in
  let writable page ~twin =
    let e = Mem.Page_table.ensure node.Svm.System.pt page in
    ignore (Mem.Page_table.attach_copy node.Svm.System.pt e);
    Mem.Page_table.protect e Mem.Page_table.Read_write;
    if twin then Mem.Page_table.make_twin e;
    e
  in
  let logged = writable 0 ~twin:true and saturated = writable 1 ~twin:false in
  Mem.Page_table.protect (writable 2 ~twin:false) Mem.Page_table.Read_only;
  let values = Array.init 100_000 (fun i -> ref (float_of_int i)) in
  let n = Array.length values in
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let overhead = minor_words (fun () -> ()) in
  let accesses ~page n access =
    let base = page * Svm.Api.page_words ctx in
    minor_words (fun () ->
        for i = 0 to n - 1 do
          access (base + (i land 7)) i
        done)
    -. overhead
  in
  let stores ~page n = accesses ~page n (fun addr i -> Svm.Api.write ctx addr !(values.(i))) in
  check (Alcotest.float 0.) "minor words for 15 logged stores" 0. (stores ~page:0 15);
  check Alcotest.int "the log has one slot left" 1 logged.Mem.Page_table.log_free;
  check (Alcotest.float 0.) "minor words for 100k saturated stores" 0. (stores ~page:1 n);
  check Alcotest.int "the log stays saturated" 0 saturated.Mem.Page_table.log_free;
  check (Alcotest.float 0.) "minor words for 100k write_int" 0.
    (accesses ~page:1 n (fun addr i -> Svm.Api.write_int ctx addr i));
  check (Alcotest.float 0.) "minor words for 100k read_int of a read-only page" 0.
    (accesses ~page:2 n (fun addr _ -> ignore (Sys.opaque_identity (Svm.Api.read_int ctx addr))));
  check (Alcotest.float 0.) "minor words for 100k read_int of a writable page" 0.
    (accesses ~page:1 n (fun addr _ -> ignore (Sys.opaque_identity (Svm.Api.read_int ctx addr))))

(* Every state a page can be in when the application touches it, and
   which fault, if any, each access must perform first. *)
type page_state =
  | Past_end  (** Beyond every page the node ever touched. *)
  | No_entry  (** Below a touched page, never touched itself. *)
  | Uncached  (** An entry without a copy. *)
  | Prot of Mem.Page_table.protection  (** A copy with this protection. *)

let page_state_name = function
  | Past_end -> "past npages"
  | No_entry -> "no entry"
  | Uncached -> "no copy"
  | Prot No_access -> "No_access"
  | Prot Read_only -> "Read_only"
  | Prot Read_write -> "Read_write"

(* [Api.read] and [Api.write] under a handler that stands in for the fault
   handlers: it logs each fault effect and grants what the fault asks (a
   copy, opened read-only on a read fault and read-write on a write
   fault). Each access must perform a fault exactly when its page lacks
   the protection it needs, charge one access however it goes, and, for a
   store, write the copy, append to a log that holds, and write through
   to a mirror. *)
let test_access_paths () =
  let page_words = 64 and page = 3 and off = 5 in
  let run state ~write ~mirrored ~logging =
    let name =
      Printf.sprintf "%s %s%s%s" (if write then "write" else "read") (page_state_name state)
        (if mirrored then " mirrored" else "")
        (if logging then " logging" else "")
    in
    let sys = Svm.System.create (Svm.Config.make ~page_words ~nprocs:2 Svm.Config.Hlrc) in
    let node = sys.Svm.System.nodes.(0) in
    let pt = node.Svm.System.pt in
    let ctx = Svm.Api.make_ctx sys node in
    (match state with
    | Past_end -> ignore (Mem.Page_table.ensure pt (page - 1))
    | No_entry -> ignore (Mem.Page_table.ensure pt (page + 1))
    | Uncached -> ignore (Mem.Page_table.ensure pt page)
    | Prot prot ->
        let e = Mem.Page_table.ensure pt page in
        let data = Mem.Page_table.attach_copy pt e in
        Mem.Words.set data off 7.;
        Mem.Page_table.protect e prot;
        if logging then Mem.Page_table.make_twin e;
        if mirrored then e.Mem.Page_table.mirror <- Some (Mem.Words.make page_words));
    let faults = ref [] in
    let grant what p prot =
      faults := Printf.sprintf "%s fault on page %d" what p :: !faults;
      let e = Mem.Page_table.ensure pt p in
      ignore (Mem.Page_table.materialize pt e);
      Mem.Page_table.protect e prot
    in
    let under_faults f =
      let open Effect.Deep in
      try_with f ()
        {
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Svm.System.Read_fault_eff p ->
                  Some
                    (fun (k : (a, _) continuation) ->
                      grant "read" p Mem.Page_table.Read_only;
                      continue k ())
              | Svm.System.Write_fault_eff p ->
                  Some
                    (fun (k : (a, _) continuation) ->
                      grant "write" p Mem.Page_table.Read_write;
                      continue k ())
              | _ -> None);
        }
    in
    let want_faults =
      match (state, write) with
      | Prot Read_write, _ | Prot Read_only, false -> []
      | _ -> [ Printf.sprintf "%s fault on page %d" (if write then "write" else "read") page ]
    in
    let before = Svm.Api.now ctx in
    let addr = (page * page_words) + off in
    if write then begin
      let log_free = (Mem.Page_table.find pt page).Mem.Page_table.log_free in
      under_faults (fun () -> Svm.Api.write ctx addr 42.);
      check Alcotest.(list string) (name ^ ": faults") want_faults !faults;
      let e = Mem.Page_table.entry pt page in
      check (Alcotest.float 0.) (name ^ ": the copy") 42.
        (Mem.Words.get (Mem.Page_table.data_exn e) off);
      check Alcotest.int (name ^ ": free log slots") (max 0 (log_free - 1))
        e.Mem.Page_table.log_free;
      if log_free > 0 then
        check Alcotest.int (name ^ ": the logged offset") off e.Mem.Page_table.log.(log_free - 1);
      match e.Mem.Page_table.mirror with
      | Some m ->
          check (Alcotest.float 0.) (name ^ ": the mirror") 42. (Mem.Words.get m off);
          check Alcotest.int (name ^ ": words written through") 1 e.Mem.Page_table.mirror_pending
      | None -> check Alcotest.bool (name ^ ": the mirror is kept") false mirrored
    end
    else begin
      let v = under_faults (fun () -> Svm.Api.read ctx addr) in
      check Alcotest.(list string) (name ^ ": faults") want_faults !faults;
      check (Alcotest.float 0.) (name ^ ": the word") (match state with Prot _ -> 7. | _ -> 0.) v
    end;
    check (Alcotest.float 0.) (name ^ ": one access charged")
      (Svm.System.costs sys).Machine.Costs.mem_access
      (Svm.Api.now ctx -. before);
    Test_mem.check_sentinel name
  in
  List.iter
    (fun write ->
      List.iter (fun state -> run state ~write ~mirrored:false ~logging:false)
        [ Past_end; No_entry; Uncached ];
      List.iter
        (fun prot ->
          List.iter
            (fun (mirrored, logging) -> run (Prot prot) ~write ~mirrored ~logging)
            [ (false, false); (false, true); (true, false); (true, true) ])
        Mem.Page_table.[ No_access; Read_only; Read_write ])
    [ false; true ]

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
    ("an unregistered page reads the directory defaults", `Quick, test_unregistered_page_defaults);
    ("protocol predicates", `Quick, test_protocol_predicates);
    ("protocol string roundtrip", `Quick, test_protocol_string_roundtrip);
    ("service placement", `Quick, test_serve_placement);
    ("api write allocation-free", `Quick, test_write_allocation_free);
    ("api faults exactly when protection lacks", `Quick, test_access_paths);
    QCheck_alcotest.to_alcotest prop_malloc_disjoint;
  ]
