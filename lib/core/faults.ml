(* Page-fault handling — the SVM access-detection mechanism (a "fault" in
   the virtual-memory sense: a trapped read or write to an invalid page).
   Injected infrastructure failures — lost/duplicated messages, latency
   spikes, slow nodes — are a different thing entirely and live in
   [Machine.Chaos] / [Machine.Transport].

   Home-based protocols resolve a miss with a single round trip to the
   page's home, which holds an eagerly-updated master copy guarded by
   per-writer flush timestamps. Homeless protocols first obtain a full copy
   from the (approximate) copyset when none is cached, then collect the
   missing diffs from their writers and apply them in causal order.

   All entry points assume the node's application process is (or is about to
   be) suspended; completion callbacks fire at the node's advanced clock. *)

open System

let request_service_cost = 10.

(* Causal order on write notices carried by homeless protocols. Incomparable
   (truly concurrent) diffs touch disjoint words in data-race-free programs,
   so any tie order is sound. *)
let compare_causal (a : Proto.Interval.t) (b : Proto.Interval.t) =
  if a.Proto.Interval.node = b.Proto.Interval.node then
    compare a.Proto.Interval.index b.Proto.Interval.index
  else if Proto.Interval.causally_before a b then -1
  else if Proto.Interval.causally_before b a then 1
  else 0

(* Topological order of (interval, diff) pairs under the causal partial
   order. A comparison sort on the partial order itself is unsound
   (incomparable pairs compare equal, breaking transitivity), but the sum of
   a timestamp's entries is strictly monotone in the pointwise order:
   a < b implies sum(a) < sum(b). Sorting by (sum, node, index) is
   therefore a linear extension of causality, computed in O(k log k).
   Same-sum elements are equal or concurrent, and concurrent diffs touch
   disjoint words in data-race-free programs, so their order is free. *)
let vt_weight (iv : Proto.Interval.t) =
  match iv.Proto.Interval.vt with
  | None -> invalid_arg "vt_weight: interval lacks a timestamp"
  | Some vt ->
      let sum = ref 0 in
      for i = 0 to Proto.Vclock.nprocs vt - 1 do
        sum := !sum + Proto.Vclock.get vt i
      done;
      !sum

let causal_key iv = (vt_weight iv, iv.Proto.Interval.node, iv.Proto.Interval.index)

let causal_order tagged =
  let keyed = List.map (fun (iv, diff) -> (causal_key iv, (iv, diff))) tagged in
  List.map snd (List.sort (fun (ka, _) (kb, _) -> compare ka kb) keyed)

let apply_one_diff sys node entry diff =
  Mem.Diff.apply diff (Mem.Page_table.data_exn entry);
  (match entry.Mem.Page_table.twin with Some t -> Mem.Diff.apply diff t | None -> ());
  record_diff_apply sys node diff ~counted:true;
  charge_protocol node (Intervals.diff_apply_cost (costs sys) diff)

(* Re-apply the node's own retained diffs newer than [applied.(self)] after a
   full-page fetch overwrote the local copy (homeless protocols only). *)
let reapply_own_diffs sys node pi entry =
  match Hashtbl.find_opt node.own_diffs pi.pi_page with
  | None -> ()
  | Some diffs ->
      let newer =
        List.filter (fun (idx, _, _) -> idx > Proto.Vclock.get pi.applied node.id) diffs
      in
      let ascending = List.sort (fun (a, _, _) (b, _, _) -> compare a b) newer in
      List.iter
        (fun (idx, diff, _) ->
          apply_one_diff sys node entry diff;
          Proto.Vclock.set pi.applied node.id idx)
        ascending

(* ------------------------------------------------------------------ *)
(* Home-based fetch                                                   *)

(* Install a received page copy, keeping any uncommitted local writes
   (possible when a false-sharing invalidation hit a page the node was
   still writing); under AURC's write-through the copy already holds them.
   The replaced copy goes back on the run's free list, after the node's
   own writes were diffed out of it. *)
let install_copy sys entry (data : Mem.Words.t) =
  let old = entry.Mem.Page_table.data in
  (match (entry.Mem.Page_table.dirty, entry.Mem.Page_table.twin) with
  | true, Some twin ->
      let own =
        Mem.Diff.create ~page:entry.Mem.Page_table.page ~twin
          ~current:(Mem.Page_table.data_exn entry)
      in
      entry.Mem.Page_table.data <- Some data;
      entry.Mem.Page_table.twin <- Some (Mem.Words.copy data);
      Mem.Diff.apply own data
  | true, None when aurc sys -> entry.Mem.Page_table.data <- Some data
  | true, None -> invalid_arg "install_copy: dirty page without twin"
  | false, _ ->
      entry.Mem.Page_table.data <- Some data;
      entry.Mem.Page_table.twin <- None);
  match old with Some frame -> Mem.Words.release sys.frames frame | None -> ()

(* A home-fetch reply: install the snapshot and open the page up. *)
let install_fetched sys entry snapshot =
  install_copy sys entry snapshot;
  entry.Mem.Page_table.prot <-
    (if entry.Mem.Page_table.dirty then Mem.Page_table.Read_write
     else Mem.Page_table.Read_only)

(* The home's master copy of [page], materialized (zero-filled) on the
   home's first touch. *)
let master_of home_node page =
  let hentry = Mem.Page_table.ensure home_node.pt page in
  match hentry.Mem.Page_table.data with
  | Some d -> d
  | None ->
      let d = Mem.Page_table.attach_copy home_node.pt hentry in
      hentry.Mem.Page_table.prot <- Mem.Page_table.Read_only;
      d

(* The run of adjacent same-home pages currently invalid on [node], right
   after [page] — the pages a sequential reader faults on next (a cold
   sweep over a big read-mostly structure is the classic case: the same
   access pattern burst faulting targets in real VM systems). Capped at
   [fault_batch - 1] extras. *)
let batch_candidates sys node page =
  let limit = sys.cfg.Config.fault_batch - 1 in
  let home = home_of sys page in
  let rec scan q acc n =
    if
      n > 0
      && Hashtbl.mem sys.alloc_tbl q
      && home_of sys q = home
      && (Mem.Page_table.ensure node.pt q).Mem.Page_table.prot = Mem.Page_table.No_access
    then scan (q + 1) (q :: acc) (n - 1)
    else List.rev acc
  in
  scan (page + 1) [] limit

(* One round trip to the home for [page], plus the [extras] (adjacent
   same-home invalid pages, [--fault-batch N > 1]): strided access patterns
   fault on page runs, and each unbatched miss pays a full round trip, so
   piggybacking the run amortizes the latency. The home includes only the
   extras whose flush cut already covers the requester's needs — a behind
   page is left out and faults normally later, it never holds the batch.
   The faulting page waits at the home while its flush cut is behind, and
   a stale snapshot is retried without extras. With no extras nothing
   extra is built, so the one-page fetch allocates as little as it can. *)
let rec fetch_from_home sys node page ~extras ~on_valid =
  let pi = page_info sys node page in
  let home = home_of sys page in
  let home_node = sys.nodes.(home) in
  let needed = Proto.Vclock.copy pi.needed in
  (* Replies belonging to a superseded fetch generation (the fetch was
     re-issued by a failover) discard themselves on arrival. *)
  let gen = node.fetch_gen in
  let extra_needed =
    if extras = [] then []
    else List.map (fun q -> (q, Proto.Vclock.copy (page_info sys node q).needed)) extras
  in
  record_page_fetch sys node ~page ~home ~extras:(List.length extras);
  let request_bytes =
    List.fold_left
      (fun acc (_, vc) -> acc + 8 + Proto.Vclock.size_bytes vc)
      (header_bytes + Proto.Vclock.size_bytes needed)
      extra_needed
  in
  send sys ~src:node ~dst:home ~at:node.mach.Machine.Node.ck.Machine.Node.clock
    ~bytes:request_bytes ~update:0 (fun arrival ->
      (* Authority epoch under which this request was accepted. If a
         failover re-homes the page before the serve runs (the home was
         deposed while the fetch was parked or in flight), the epoch is
         stale: serving would hand out an outdated master. Fence — the
         requester was re-issued against the new home at promote time
         ([Replica.reissue_blocked]), so the park is dead weight. *)
      let epoch0 = epoch_of sys page in
      let fenced at =
        let stale = home_of sys page <> home || epoch_of sys page <> epoch0 in
        if stale then record_fenced_fetch sys home_node ~time:at ~page ~requester:node.id;
        stale
      in
      let serve_fetch at =
        if not (fenced at) then begin
          let served =
            if extra_needed = [] then []
            else
              List.filter_map
                (fun (q, vc) ->
                  let hq = home_page sys home_node q in
                  if Proto.Vclock.leq vc hq.hp_flush then
                    Some
                      ( q,
                        Mem.Words.take sys.frames (master_of home_node q),
                        Proto.Vclock.copy hq.hp_flush )
                  else None)
                extra_needed
          in
          let pages = 1 + List.length served in
          let cost =
            if served = [] then request_service_cost
            else request_service_cost *. float_of_int pages
          in
          let done_t = serve sys home_node ~arrival:at ~cost in
          let snapshot = Mem.Words.take sys.frames (master_of home_node page) in
          let flush = Proto.Vclock.copy (home_page sys home_node page).hp_flush in
          let update = pages * Mem.Layout.page_bytes sys.layout in
          let bytes =
            List.fold_left
              (fun acc (_, _, vc) -> acc + 8 + Proto.Vclock.size_bytes vc)
              (header_bytes + update + Proto.Vclock.size_bytes flush)
              served
          in
          send sys ~src:home_node ~dst:node.id ~at:done_t ~bytes ~update (fun reply_at ->
              if node.fetch_gen <> gen then begin
                List.iter (fun (_, snap, _) -> Mem.Words.release sys.frames snap) served;
                Mem.Words.release sys.frames snapshot
              end
              else begin
                Machine.Node.sync_to node.mach reply_at;
                (* Install prefetched extras first; each re-checks that the
                   snapshot still covers the page's (possibly grown) needs
                   and that no concurrent fetch validated it meanwhile. *)
                if served <> [] then
                  List.iter
                    (fun (q, snap, qflush) ->
                      let entry = Mem.Page_table.ensure node.pt q in
                      if
                        entry.Mem.Page_table.prot = Mem.Page_table.No_access
                        && Proto.Vclock.leq (page_info sys node q).needed qflush
                      then install_fetched sys entry snap
                      else Mem.Words.release sys.frames snap)
                    served;
                (* The node may have flushed its own writes mid-fault (a
                   remote lock request ended its interval); if the snapshot
                   predates them, retry so they are not lost. *)
                if not (Proto.Vclock.leq pi.needed flush) then begin
                  Mem.Words.release sys.frames snapshot;
                  fetch_from_home sys node page ~extras:[] ~on_valid
                end
                else begin
                  install_fetched sys (Mem.Page_table.ensure node.pt page) snapshot;
                  on_valid ()
                end
              end)
        end
      in
      let hp = home_page sys home_node page in
      if Proto.Vclock.leq needed hp.hp_flush then serve_fetch arrival
      else if not (fenced arrival) then begin
        ignore (serve sys home_node ~arrival ~cost:request_service_cost);
        hp.hp_pending <-
          { pf_needed = needed; pf_serve = serve_fetch; pf_requester = node.id }
          :: hp.hp_pending;
        if observing sys then event sys home_node (Obs.Trace.Page_fetch_pending { page })
      end)

(* ------------------------------------------------------------------ *)
(* Homeless fetch: full copy (if uncached) then missing diffs           *)

let still_missing pi =
  List.filter
    (fun (iv : Proto.Interval.t) ->
      iv.Proto.Interval.index > Proto.Vclock.get pi.applied iv.Proto.Interval.node)
    pi.missing

let finish_homeless_validation node pi entry ~on_valid =
  Mem.Accounting.sub node.stats.Stats.proto_mem
    (missing_entry_bytes * List.length pi.missing);
  pi.missing <- [];
  entry.Mem.Page_table.prot <-
    (if entry.Mem.Page_table.dirty then Mem.Page_table.Read_write else Mem.Page_table.Read_only);
  on_valid ()

(* Collect and apply the diffs for the page's outstanding write notices. One
   request goes to each distinct writer; replies are applied in causal
   order once all have arrived (paper §2.1: the faulting processor "collects
   all the diffs for the page and applies them in the proper causal
   order"). *)
let collect_diffs sys node page ~on_valid =
  let pi = page_info sys node page in
  let entry = Mem.Page_table.entry node.pt page in
  let wanted = still_missing pi in
  if wanted = [] then finish_homeless_validation node pi entry ~on_valid
  else begin
    let gen = node.fetch_gen in
    let by_writer = Hashtbl.create 8 in
    List.iter
      (fun (iv : Proto.Interval.t) ->
        let w = iv.Proto.Interval.node in
        let prev = try Hashtbl.find by_writer w with Not_found -> [] in
        Hashtbl.replace by_writer w (iv.Proto.Interval.index :: prev))
      wanted;
    let writers = Hashtbl.fold (fun w idxs acc -> (w, idxs) :: acc) by_writer [] in
    let outstanding = ref (List.length writers) in
    let received : (int * int * Mem.Diff.t) list ref = ref [] in
    let vt_of = Hashtbl.create 8 in
    List.iter
      (fun (iv : Proto.Interval.t) ->
        Hashtbl.replace vt_of (iv.Proto.Interval.node, iv.Proto.Interval.index) iv)
      wanted;
    let complete at =
      Machine.Node.sync_to node.mach at;
      (* Sort the collected diffs by the causal order of their intervals. *)
      let tagged =
        List.map (fun (w, idx, diff) -> (Hashtbl.find vt_of (w, idx), diff)) !received
      in
      let ordered = causal_order tagged in
      List.iter
        (fun ((iv : Proto.Interval.t), diff) ->
          apply_one_diff sys node entry diff;
          if iv.Proto.Interval.index > Proto.Vclock.get pi.applied iv.Proto.Interval.node then
            Proto.Vclock.set pi.applied iv.Proto.Interval.node iv.Proto.Interval.index)
        ordered;
      finish_homeless_validation node pi entry ~on_valid
    in
    (* [server] replies with [writer]'s diffs, one per requested interval. *)
    let reply server ~at writer diffs =
      let cost = request_service_cost *. float_of_int (List.length diffs) in
      let done_t = serve sys server ~arrival:at ~cost in
      let payload = List.fold_left (fun acc (_, d) -> acc + Mem.Diff.size_bytes d) 0 diffs in
      if spans_on sys then
        event_at sys ~node:server.id ~time:done_t
          (Obs.Trace.Diff_reply { page; dst = node.id; bytes = payload });
      send sys ~src:server ~dst:node.id ~at:done_t ~bytes:(header_bytes + payload)
        ~update:payload (fun reply_at ->
          if node.fetch_gen = gen then begin
            Machine.Node.sync_to node.mach reply_at;
            List.iter (fun (idx, diff) -> received := (writer, idx, diff) :: !received) diffs;
            decr outstanding;
            if !outstanding = 0 then complete node.mach.Machine.Node.ck.Machine.Node.clock
          end)
    in
    let request server idxs on_arrival =
      let intervals = List.length idxs in
      if observing sys then
        event sys node (Obs.Trace.Diff_request { page; writer = server; intervals });
      send sys ~src:node ~dst:server ~at:node.mach.Machine.Node.ck.Machine.Node.clock
        ~bytes:(header_bytes + (8 * intervals)) ~update:0 on_arrival
    in
    List.iter
      (fun (writer, idxs) ->
        if is_alive sys writer then begin
          let writer_node = sys.nodes.(writer) in
          request writer idxs (fun arrival ->
              let stored = try Hashtbl.find writer_node.own_diffs page with Not_found -> [] in
              let diffs =
                List.map
                  (fun idx ->
                    match List.find_opt (fun (i, _, _) -> i = idx) stored with
                    | Some (_, diff, _) -> (idx, diff)
                    | None ->
                        invalid_arg
                          (Printf.sprintf
                             "collect_diffs: writer %d lacks diff (page %d, interval %d)" writer
                             page idx))
                  idxs
              in
              reply writer_node ~at:arrival writer diffs)
        end
        else
          (* The writer crash-stopped: its retained diffs are gone with it,
             but on replicated runs every interval-end diff was streamed to
             the page's replica members. Pull them from the first live
             member's archive instead. With no live member the request is
             simply not sent — the fetch hangs and the watchdog reports the
             unsurvivable loss. *)
          match live_replica sys page with
          | None -> ()
          | Some holder ->
              let holder_node = sys.nodes.(holder) in
              record_failover sys node ~time:node.mach.Machine.Node.ck.Machine.Node.clock ~page
                ~from_:writer ~to_:holder;
              request holder idxs (fun arrival ->
                  (* The dead writer's last archive messages may still be in
                     flight from before the crash; poll (in simulated time)
                     until the archive holds every requested interval. *)
                  let rec attempt tries at =
                    let rp = replica_page sys holder_node page in
                    let find idx =
                      List.find_opt (fun (w, i, _, _) -> w = writer && i = idx) rp.rp_archive
                    in
                    if List.for_all (fun idx -> find idx <> None) idxs then
                      reply holder_node ~at writer
                        (List.map
                           (fun idx ->
                             match find idx with
                             | Some (_, _, d, _) -> (idx, d)
                             | None -> assert false)
                           idxs)
                    else if tries >= 1000 then
                      invalid_arg
                        (Printf.sprintf
                           "collect_diffs: replica %d's archive lacks diffs of dead writer \
                            %d (page %d)"
                           holder writer page)
                    else
                      Sim.Engine.schedule sys.engine ~at:(at +. 50.) (fun () ->
                          attempt (tries + 1) (at +. 50.))
                  in
                  attempt 0 arrival))
      writers
  end

(* Obtain a full base copy from the approximate copyset, then collect
   diffs. The reply carries the replier's applied cut so the fetcher knows
   which notices the copy already reflects (sound because applied cuts are
   causally closed; see DESIGN.md). *)
let fetch_full_page sys node page ~on_valid =
  let pi = page_info sys node page in
  let entry = Mem.Page_table.ensure node.pt page in
  let source =
    if eager_rc sys then
      (* Eager RC has no diffs to pull: the copy must come from a member
         whose own copy has installed (installed members never drop their
         copies, so the choice is stable). A page nobody holds yet
         materializes locally as zeros. *)
      match installed_member sys page with Some m -> m | None -> node.id
    else keeper_of sys page
  in
  if source <> node.id && (not (is_alive sys source)) && homeless_lazy sys then begin
    (* The copyset keeper crashed with the only known full copy. Rebuild
       from first principles: shared pages start zeroed and every byte
       since originates from some writer's diff, so zeros plus the page's
       complete diff history equals the lost copy. Reset the applied cut,
       repopulate the missing list from the retained interval records
       (complete until a GC prunes them — the chaos schedule kills long
       before any GC fires at these scales), and let [collect_diffs] pull
       each diff from its writer — or, for the dead writer's own, from the
       page's replica archive. *)
    record_failover sys node ~time:node.mach.Machine.Node.ck.Machine.Node.clock ~page
      ~from_:source ~to_:node.id;
    ignore (Mem.Page_table.attach_copy node.pt entry);
    Mem.Accounting.sub node.stats.Stats.proto_mem
      (missing_entry_bytes * List.length pi.missing);
    pi.applied <- Proto.Vclock.create ~nprocs:(nprocs sys);
    let all =
      Array.to_list node.known
      |> List.concat_map
           (List.filter (fun (iv : Proto.Interval.t) ->
                iv.Proto.Interval.node <> node.id
                && List.mem page iv.Proto.Interval.pages))
    in
    pi.missing <- all;
    Mem.Accounting.add node.stats.Stats.proto_mem (missing_entry_bytes * List.length all);
    reapply_own_diffs sys node pi entry;
    collect_diffs sys node page ~on_valid
  end
  else if source = node.id then begin
    (* We are the allocator (or, under RC, the first toucher): materialize
       the initial zero-filled copy. *)
    ignore (Mem.Page_table.attach_copy node.pt entry);
    if eager_rc sys then mark_copy_installed sys node page;
    reapply_own_diffs sys node pi entry;
    collect_diffs sys node page ~on_valid
  end
  else begin
    let source_node = sys.nodes.(source) in
    let gen = node.fetch_gen in
    record_full_page_fetch sys node ~page ~source;
    send sys ~src:node ~dst:source ~at:node.mach.Machine.Node.ck.Machine.Node.clock ~bytes:header_bytes
      ~update:0 (fun arrival ->
        let done_t = serve sys source_node ~arrival ~cost:request_service_cost in
        let sentry = Mem.Page_table.ensure source_node.pt page in
        let sdata =
          match sentry.Mem.Page_table.data with
          | Some d -> d
          | None ->
              (* Only reachable for the homeless-lazy protocols (an RC
                 source is always an installed member). *)
              assert (not (eager_rc sys));
              let d = Mem.Page_table.attach_copy source_node.pt sentry in
              sentry.Mem.Page_table.prot <- Mem.Page_table.Read_only;
              d
        in
        (* Eager RC: the requester joins the copyset before the snapshot is
           taken, so any update pushed from now on reaches it (held in its
           backlog until the copy installs below). *)
        if eager_rc sys then register_copy sys node page;
        let snapshot = Mem.Words.copy sdata in
        let spi = page_info sys source_node page in
        let applied = Proto.Vclock.copy spi.applied in
        let bytes =
          header_bytes + Mem.Layout.page_bytes sys.layout + Proto.Vclock.size_bytes applied
        in
        send sys ~src:source_node ~dst:node.id ~at:done_t ~bytes
          ~update:(Mem.Layout.page_bytes sys.layout) (fun reply_at ->
            if node.fetch_gen <> gen then ()
            else begin
            Machine.Node.sync_to node.mach reply_at;
            install_copy sys entry snapshot;
            Proto.Vclock.merge_into pi.applied applied;
            reapply_own_diffs sys node pi entry;
            (* Eager RC: updates that raced the transfer were parked in the
               backlog; apply them in push order on top of the copy, then
               open this copy up for serving fetches. *)
            if eager_rc sys then begin
              List.iter (fun diff -> apply_one_diff sys node entry diff) (List.rev pi.rc_backlog);
              pi.rc_backlog <- [];
              mark_copy_installed sys node page
            end;
            collect_diffs sys node page ~on_valid
            end))
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)

(* Bring [page] to a readable state on [node]; [on_valid] runs (at the
   node's advanced clock) once the local copy is coherent. *)
let make_valid sys node page ~on_valid =
  let entry = Mem.Page_table.ensure node.pt page in
  if entry.Mem.Page_table.prot <> Mem.Page_table.No_access then on_valid ()
  else if home_based sys then begin
    if home_of sys page = node.id then begin
      (* First touch of a page homed here: the master copy materializes
         in place, but any already-announced remote writes must have
         landed before reads are allowed. *)
      let hp = home_page sys node page in
      let pi = page_info sys node page in
      if entry.Mem.Page_table.data = None then
        ignore (Mem.Page_table.attach_copy node.pt entry);
      if Proto.Vclock.leq pi.needed hp.hp_flush then begin
        entry.Mem.Page_table.prot <- Mem.Page_table.Read_only;
        on_valid ()
      end
      else begin
        (* This wait is local (own master catching up with in-flight
           flushes): a failover must not re-issue it, or the park would be
           duplicated and the process resumed twice. *)
        node.fault_retry <- None;
        let span =
          span_begin sys ~node:node.id ~time:node.mach.Machine.Node.ck.Machine.Node.clock
            ~bucket:Obs.Trace.Wb_home ~resource:page
        in
        hp.hp_pending <-
          {
            pf_needed = Proto.Vclock.copy pi.needed;
            pf_serve =
              (fun at ->
                Machine.Node.sync_to node.mach at;
                span_end sys ~node:node.id ~time:node.mach.Machine.Node.ck.Machine.Node.clock ~span
                  ~bucket:Obs.Trace.Wb_home ~resource:page;
                entry.Mem.Page_table.prot <- Mem.Page_table.Read_only;
                on_valid ());
            pf_requester = node.id;
          }
          :: hp.hp_pending
      end
    end
    else begin
      record_read_miss node;
      let extras = if sys.cfg.Config.fault_batch > 1 then batch_candidates sys node page else [] in
      fetch_from_home sys node page ~extras ~on_valid
    end
  end
  else begin
    record_read_miss node;
    if entry.Mem.Page_table.data = None then fetch_full_page sys node page ~on_valid
    else collect_diffs sys node page ~on_valid
  end

let make_writable sys node page =
  let c = costs sys in
  let entry = Mem.Page_table.entry node.pt page in
  assert (entry.Mem.Page_table.prot <> Mem.Page_table.No_access);
  if entry.Mem.Page_table.prot = Mem.Page_table.Read_only then begin
    let at_home = home_based sys && home_of sys page = node.id in
    if aurc sys then begin
      (* No twin: set up the automatic-update mapping so subsequent stores
         write through to the home's master copy (paper 2.2). *)
      if (not at_home) && entry.Mem.Page_table.mirror = None then begin
        entry.Mem.Page_table.mirror <- Some (master_of sys.nodes.(home_of sys page) page)
      end
    end
    else if ((not at_home) || replicated sys) && entry.Mem.Page_table.twin = None then begin
      (* At home a twin is normally pointless (the master copy IS the
         page); with replicas the home keeps one anyway, so its own writes
         can be diffed at interval end and streamed to the backups. *)
      Mem.Page_table.make_twin entry;
      charge_protocol node c.Machine.Costs.twin_copy;
      Mem.Accounting.add node.stats.Stats.proto_mem (Mem.Layout.page_bytes sys.layout)
    end;
    entry.Mem.Page_table.prot <- Mem.Page_table.Read_write;
    charge_protocol node c.Machine.Costs.page_protect;
    if not entry.Mem.Page_table.dirty then begin
      entry.Mem.Page_table.dirty <- true;
      node.dirty <- page :: node.dirty
    end
  end

(* Effect-handler entry points: the process is suspended with continuation
   [k]; it resumes once the access can proceed. *)
let read_fault sys node page k =
  let c = costs sys in
  charge_protocol node c.Machine.Costs.page_fault;
  record_fault sys node ~page ~write:false;
  block sys node ~resource:page Wait_data k;
  let finish () =
    node.fault_page <- -1;
    node.fault_retry <- None;
    resume sys node ~at:node.mach.Machine.Node.ck.Machine.Node.clock
  in
  (* Record how to re-issue this fault's fetch: if a failover re-homes the
     page while the fetch is in flight at a dead node, the detector bumps
     [fetch_gen] (discarding any stale replies) and invokes the retry. *)
  node.fault_page <- page;
  node.fault_retry <- Some (fun () -> make_valid sys node page ~on_valid:finish);
  make_valid sys node page ~on_valid:finish

let write_fault sys node page k =
  let c = costs sys in
  charge_protocol node c.Machine.Costs.page_fault;
  record_fault sys node ~page ~write:true;
  block sys node ~resource:page Wait_data k;
  let entry = Mem.Page_table.ensure node.pt page in
  if entry.Mem.Page_table.prot = Mem.Page_table.No_access then begin
    let finish () =
      node.fault_page <- -1;
      node.fault_retry <- None;
      make_writable sys node page;
      resume sys node ~at:node.mach.Machine.Node.ck.Machine.Node.clock
    in
    node.fault_page <- page;
    node.fault_retry <- Some (fun () -> make_valid sys node page ~on_valid:finish);
    make_valid sys node page ~on_valid:finish
  end
  else begin
    make_writable sys node page;
    resume sys node ~at:node.mach.Machine.Node.ck.Machine.Node.clock
  end
