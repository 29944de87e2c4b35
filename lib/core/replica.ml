(* Deterministic failover of replicated homes (home-based protocols) and
   re-routing of in-flight fetches after a node kill.

   The failure detector (driven from [Runtime] at kill time plus
   [Chaos.detect_delay]) calls {!failover} exactly once per kill. For every
   page whose home died and that has a replica set, the next live node in
   rank order is promoted to primary and rebuilds the master copy:

   - [Backup] scheme: the warm copy is the rebuild base — the dead primary
     streamed every applied diff over the FIFO primary->backup channel, so
     the warm copy is a causally consistent prefix of the master, and its
     applied cut [rp_flush] tells exactly which retained diffs still need
     pulling. Pulled diffs are never causally below anything in the base
     (a later same-word write required the earlier flush to have been
     applied and hence streamed), so applying them on top is sound.
   - [Inval] scheme: backups hold no warm data for remote writers, only the
     dead primary's own payload diffs (archived with their timestamps). The
     master is rebuilt from a zero page plus the causally-sorted union of
     the archive and every retained diff pulled from the live writers —
     shared memory is zero-initialized, so zeros plus the full committed
     diff history equals the master.

   Flushes that arrive while a page is mid-recovery are stashed by
   [Intervals.deliver_flush] and replayed here after the rebuild (commits
   racing a recovery cannot be causally ordered among themselves: a later
   same-word writer's fetch is parked at the new home until recovery
   completes, so arrival-order replay is sound).

   What is *not* recoverable: a diff in flight to the dead node at kill
   time (crash-stop loses it with the victim), and locks or barrier slots
   the victim held; lock managers and tokens are not replicated at all.
   The soak harness therefore places kills after the victim's last barrier
   arrival and the run's last lock handoff, and prints the [svm_run] line
   that replays any cell that still fails; anything stronger would need a
   logging protocol the paper's systems do not have. *)

open System

(* Pull request: the new primary asks one live writer for its retained
   diffs of [page] above the per-writer cut, and stashes the reply in the
   page's recovery record. The last reply triggers [complete]. *)
let pull sys b ~page ~cut ~(rc : recovery) ~complete ~at =
  Array.iter
    (fun (w : node_state) ->
      if w.id <> b.id && is_alive sys w.id then begin
        rc.rc_outstanding <- rc.rc_outstanding + 1;
        let req_bytes = header_bytes + Proto.Vclock.size_bytes cut in
        record_recovery b ~pulled:0 ~bytes:req_bytes ~applied:0;
        send sys ~src:b ~dst:w.id ~at ~bytes:req_bytes ~update:0 (fun arrival ->
            let done_t = serve sys w ~arrival ~cost:Faults.request_service_cost in
            let mine =
              match Hashtbl.find_opt w.own_diffs page with
              | None -> []
              | Some diffs ->
                  List.filter (fun (idx, _, _) -> idx > Proto.Vclock.get cut w.id) diffs
            in
            let reply_bytes =
              List.fold_left
                (fun acc (_, diff, vt) ->
                  acc + Mem.Diff.size_bytes diff + Proto.Vclock.size_bytes vt)
                header_bytes mine
            in
            record_recovery w ~pulled:(List.length mine) ~bytes:reply_bytes ~applied:0;
            let wid = w.id in
            send sys ~src:w ~dst:b.id ~at:done_t ~bytes:reply_bytes ~update:0
              (fun reply_at ->
                let got = serve sys b ~arrival:reply_at ~cost:2. in
                List.iter
                  (fun (idx, diff, vt) -> rc.rc_pull <- (wid, idx, diff, vt) :: rc.rc_pull)
                  mine;
                rc.rc_outstanding <- rc.rc_outstanding - 1;
                if rc.rc_outstanding = 0 then complete ~at:got))
      end)
    sys.nodes;
  if rc.rc_outstanding = 0 then complete ~at

(* Linear extension of causality on recovered diffs: sorting by the
   timestamp's entry sum (strictly monotone in the pointwise order), then
   (writer, index), applies every causally-ordered pair in order; same-sum
   diffs are concurrent and touch disjoint words in data-race-free
   programs, so their relative order is free (see [Faults.causal_key]). *)
let causal_sort nprocs pulled =
  let weight vt =
    let sum = ref 0 in
    for i = 0 to nprocs - 1 do
      sum := !sum + Proto.Vclock.get vt i
    done;
    !sum
  in
  List.sort
    (fun (w1, i1, _, vt1) (w2, i2, _, vt2) ->
      compare (weight vt1, w1, i1) (weight vt2, w2, i2))
    pulled

(* All writer replies are in: rebuild the master, install it (preserving
   the new primary's uncommitted local writes), restore the flush vector,
   and let the parked fetches and stashed flushes drain. *)
let complete_recovery sys (b : node_state) ~page ~cut ~warm ~(rc : recovery) ~at =
  Hashtbl.remove sys.recovering page;
  (* The new primary's own retained diffs need no message. Collected now,
     not at promotion: its writes while recovery was in flight already went
     into the copy about to be replaced, and exist nowhere else. *)
  (match Hashtbl.find_opt b.own_diffs page with
  | None -> ()
  | Some diffs ->
      List.iter
        (fun (idx, diff, vt) ->
          if idx > Proto.Vclock.get cut b.id then
            rc.rc_pull <- (b.id, idx, diff, vt) :: rc.rc_pull)
        diffs);
  let page_words = Mem.Layout.page_words sys.layout in
  let page_bytes = page_words * Mem.Layout.word_bytes in
  let base =
    match warm with
    | Some d ->
        (* The warm copy becomes the master: it stops being backup-side
           protocol memory and becomes an ordinary cached page. *)
        Mem.Accounting.sub b.stats.Stats.proto_mem page_bytes;
        d
    | None -> Mem.Words.make page_words
  in
  let ordered = causal_sort (nprocs sys) rc.rc_pull in
  let apply_cost =
    List.fold_left
      (fun acc (_, _, diff, _) -> acc +. Intervals.diff_apply_cost (costs sys) diff)
      0. ordered
  in
  List.iter (fun (_, _, diff, _) -> Mem.Diff.apply diff base) ordered;
  record_recovery b ~pulled:0 ~bytes:0 ~applied:(List.length ordered);
  let done_t = serve sys b ~arrival:at ~cost:apply_cost in
  let entry = Mem.Page_table.ensure b.pt page in
  (* Uncommitted local writes ride on top of the rebuilt master. *)
  Faults.install_copy sys entry base;
  let hp = home_page sys b page in
  Proto.Vclock.merge_into hp.hp_flush cut;
  List.iter
    (fun (w, idx, _, _) ->
      if idx > Proto.Vclock.get hp.hp_flush w then Proto.Vclock.set hp.hp_flush w idx)
    ordered;
  let pi = page_info sys b page in
  entry.Mem.Page_table.prot <-
    (if entry.Mem.Page_table.dirty then Mem.Page_table.Read_write
     else if Proto.Vclock.leq pi.needed hp.hp_flush then Mem.Page_table.Read_only
     else Mem.Page_table.No_access);
  Intervals.serve_pending_fetches hp ~at:done_t;
  (* Replay the flushes that raced the recovery, oldest first, through the
     normal (idempotent) flush path: they apply, raise the flush level,
     propagate to the surviving backups and serve newly-unparked fetches. *)
  List.iter
    (fun (writer, index, diff) ->
      Intervals.deliver_flush sys b ~arrival:done_t ~writer ~index ~page diff)
    (List.rev rc.rc_live)

(* Promote [to_] to primary of [page] after [dead] crashed. *)
let promote sys ~page ~dead ~to_ ~at =
  let b = sys.nodes.(to_) in
  record_failover sys b ~time:at ~page ~from_:dead ~to_;
  Hashtbl.replace sys.home_tbl page to_;
  (* New authority epoch: any serve closure the old home still holds was
     accepted under the previous epoch and fences itself off. *)
  bump_epoch sys page;
  Hashtbl.replace sys.failover_at page at;
  ignore (home_page sys b page);
  let rp = Hashtbl.find_opt b.repl page in
  let backup_scheme = sys.cfg.Config.repl_scheme = Config.Backup in
  let cut =
    match rp with
    | Some rp when backup_scheme -> Proto.Vclock.copy rp.rp_flush
    | _ -> Proto.Vclock.create ~nprocs:(nprocs sys)
  in
  let warm =
    match rp with
    | Some ({ rp_data = Some d; _ } as rp) when backup_scheme ->
        rp.rp_data <- None;
        Some d
    | _ -> None
  in
  let rc =
    {
      rc_pull =
        (match rp with
        | Some rp when not backup_scheme ->
            (* The dead primary's own payload diffs, archived with their
               timestamps; nothing else survives under the inval scheme. *)
            rp.rp_archive
        | _ -> []);
      rc_live = [];
      rc_outstanding = 0;
    }
  in
  Hashtbl.replace sys.recovering page rc;
  pull sys b ~page ~cut ~rc ~at
    ~complete:(fun ~at -> complete_recovery sys b ~page ~cut ~warm ~rc ~at)

(* Re-issue every live process's in-flight page fetch: replies to the old
   fetch (which may be parked at the dead home, lost on the wire, or
   already in flight) discard themselves against the bumped generation,
   and the retry routes to the page's post-failover home. Fetches parked
   at the node's *own* home are left alone ([fault_retry] is cleared when
   that wait is entered — it completes locally). The stall each re-routed
   fetch suffers, measured from the failover instant, is recorded when the
   process resumes. *)
let reissue_blocked sys ~at =
  Array.iter
    (fun (n : node_state) ->
      if is_alive sys n.id then
        match (n.blocked, n.fault_retry) with
        | Some Wait_data, Some retry ->
            n.fetch_gen <- n.fetch_gen + 1;
            n.stall_mark <- at;
            Machine.Node.sync_to n.mach at;
            retry ()
        | _ -> ())
    sys.nodes

let failover sys ~dead ~at =
  if home_based sys then begin
    let pages =
      Hashtbl.fold
        (fun page _ acc -> if home_of sys page = dead then page :: acc else acc)
        sys.repl_tbl []
      |> List.sort compare
    in
    List.iter
      (fun page ->
        match live_replica sys page with
        | None -> () (* every replica dead: the page is lost; let the watchdog report *)
        | Some b -> promote sys ~page ~dead ~to_:b ~at)
      pages
  end;
  (* Homeless protocols need no promotion: dead-writer diffs and dead-keeper
     pages are served from the replica archives on the fetch path
     ([Faults.collect_diffs] / [Faults.fetch_full_page]). Both families
     re-route their in-flight fetches. *)
  reissue_blocked sys ~at;
  (* A barrier stalled solely on the victim's arrival completes now (for a
     deposed-but-alive victim this is a no-op: [all_live_arrived] counts
     physical liveness, so the barrier still waits for its arrival). *)
  Sync.note_node_death sys

(* ------------------------------------------------------------------ *)
(* Heartbeat detector: suspicion bookkeeping, quorum membership, and the
   rejoin of falsely-deposed nodes. [Runtime] wires the transport's
   per-node suspectors to {!suspect}/{!refute}; the oracle never calls
   either, so every oracle run carries an all-false matrix and zero cost.

   The suspicion matrix is global simulator state: a node's vote is
   visible to the quorum check the instant it forms. This models an
   instantaneous gossip of suspicions — optimistic about agreement
   latency, but not about detection, which is what the heartbeat timing
   actually measures. *)

(* Strict global majority against [peer], counted over the full machine
   size, not the current members: dead and deposed nodes are absent
   voters, so a minority partition (or a single paused node suspecting
   everyone) can never depose the other side. The suspected node cannot
   vote on itself. Machines of fewer than 3 nodes have no majority
   distinct from a single accuser and never depose. *)
let quorum sys peer =
  let votes = ref 0 in
  Array.iter
    (fun (n : node_state) ->
      if n.id <> peer && is_member sys n.id && sys.suspects.(n.id).(peer) then incr votes)
    sys.nodes;
  2 * !votes > nprocs sys

(* The quorum formed: remove [peer] from the membership view and fail its
   pages over, exactly as the oracle does for a kill. A deposed node may
   in fact be alive (paused, partitioned, or just unlucky with drops): it
   keeps executing, but [is_member]/[live_replica] exclude it, the epoch
   fence voids its serving authority, and it rejoins through {!refute}
   once it is heard from again. Attributed to the node whose suspicion
   completed the quorum. *)
let depose sys ~peer ~by ~at =
  sys.deposed.(peer) <- true;
  if observing sys then event_at sys ~node:by ~time:at (Obs.Trace.Depose { node = peer });
  failover sys ~dead:peer ~at

let suspect sys ~by ~peer ~at =
  if by <> peer && not sys.suspects.(by).(peer) then begin
    sys.suspects.(by).(peer) <- true;
    record_suspicion sys ~by ~peer ~time:at ~raised:true;
    if (not (is_deposed sys peer)) && quorum sys peer then depose sys ~peer ~by ~at
  end

(* A falsely-deposed node resurfaced and the quorum against it collapsed:
   re-admit it. Its authority over every page re-homed while it was out
   is stale — drop the home-side state, invalidate the local copy (the
   next access re-fetches from the current home; uncommitted local writes
   survive in the twin and ride on top of the fetched snapshot), fence
   off remote fetches still parked here (their owners were re-issued
   against the new home at promote time), and convert the node's *own*
   parked waits into ordinary remote fetches — a process waiting on a
   master it no longer owns would otherwise sleep forever. *)
let rejoin sys ~ex ~at =
  sys.deposed.(ex) <- false;
  let node = sys.nodes.(ex) in
  if observing sys then event_at sys ~node:ex ~time:at (Obs.Trace.Rejoin { node = ex });
  let stale =
    Hashtbl.fold
      (fun page _ acc -> if home_of sys page <> ex then page :: acc else acc)
      node.homes []
    |> List.sort compare
  in
  List.iter
    (fun page ->
      let hp = Hashtbl.find node.homes page in
      let own, foreign = List.partition (fun pf -> pf.pf_requester = ex) hp.hp_pending in
      List.iter
        (fun pf -> record_fenced_fetch sys node ~time:at ~page ~requester:pf.pf_requester)
        foreign;
      hp.hp_pending <- [];
      Hashtbl.remove node.homes page;
      let entry = Mem.Page_table.ensure node.pt page in
      if
        entry.Mem.Page_table.data <> None
        && entry.Mem.Page_table.prot <> Mem.Page_table.No_access
      then entry.Mem.Page_table.prot <- Mem.Page_table.No_access;
      List.iter
        (fun pf ->
          Machine.Node.sync_to node.mach at;
          Faults.fetch_from_home sys node page ~extras:[] ~on_valid:(fun () ->
              pf.pf_serve node.mach.Machine.Node.ck.Machine.Node.clock))
        own)
    stale

let refute sys ~by ~peer ~at =
  if sys.suspects.(by).(peer) then begin
    sys.suspects.(by).(peer) <- false;
    record_suspicion sys ~by ~peer ~time:at ~raised:false;
    if is_deposed sys peer && is_alive sys peer && not (quorum sys peer) then
      rejoin sys ~ex:peer ~at
  end
