(* Interval termination and write-notice application.

   An interval ends when the node performs a remote acquire, receives a
   remote lock request, or enters a barrier (paper §2.1). Ending an interval
   creates diffs for every page written during it: homeless protocols store
   them locally (until garbage collection); home-based protocols flush them
   to each page's home and discard them immediately (paper §2.3). *)

open System

let diff_create_cost (c : Machine.Costs.t) ~page_words =
  c.Machine.Costs.diff_create_base
  +. (float_of_int page_words *. c.Machine.Costs.diff_create_per_word)

let diff_apply_cost (c : Machine.Costs.t) diff =
  c.Machine.Costs.diff_apply_base
  +. (float_of_int (Mem.Diff.word_count diff) *. c.Machine.Costs.diff_apply_per_word)

(* Serve the pending fetches of a home page that the current flush level now
   satisfies. [at] is the time the enabling diff finished applying. *)
let serve_pending_fetches hp ~at =
  let ready, still =
    List.partition (fun pf -> Proto.Vclock.leq pf.pf_needed hp.hp_flush) hp.hp_pending
  in
  hp.hp_pending <- still;
  List.iter (fun pf -> pf.pf_serve at) ready

(* AURC: the release timestamp reaches the home. The data words arrived by
   automatic update (already performed on the master copy, FIFO-ordered
   before this message on the same channel); only the flush level moves,
   with no software cost at the home. *)
let deliver_au_stamp sys home_node ~arrival ~writer ~index ~page =
  let hp = home_page sys home_node page in
  if index > Proto.Vclock.get hp.hp_flush writer then Proto.Vclock.set hp.hp_flush writer index;
  serve_pending_fetches hp ~at:arrival;
  if observing sys then event sys home_node (Obs.Trace.Au_stamp { page; writer; index })

(* Eager RC: a pushed update reaches a copyset member. The *state* change
   is performed by the caller at push time (closing the race between a push
   enumerating the copyset and a concurrent fetch snapshotting a member that
   the push is still in flight to — the same modelling as AURC's
   write-through; only acknowledged data is observable by data-race-free
   programs). This handler models the member-side timing and returns the
   acknowledgement that lets the writer's release complete. *)
let deliver_rc_update sys member ~arrival ~writer diff =
  let done_t = serve_compute sys member ~arrival ~cost:(diff_apply_cost (costs sys) diff) in
  record_eager_update sys member ~writer diff;
  send sys ~src:member ~dst:writer ~at:done_t ~bytes:header_bytes ~update:0 (fun ack_at ->
      rc_ack_arrived sys sys.nodes.(writer) ~at:ack_at)

(* A diff flushed by [writer] (interval [index]) arrives at the home. On
   replicated runs the same path also absorbs the post-failover re-flush of
   retained diffs, so the apply is made idempotent: a diff at or below the
   master's per-writer flush level is already reflected and skipped. On
   the per-(writer, home) FIFO channel indices arrive strictly ascending,
   so at [replicas] = 1 the guard never fires and the path is unchanged. *)
let deliver_flush sys home_node ~arrival ~writer ~index ~page diff =
  let c = costs sys in
  let done_t = serve sys home_node ~arrival ~cost:(diff_apply_cost c diff) in
  if replicated sys && home_of sys page <> home_node.id then
    (* Stale authority: the page was failed over while this flush was in
       flight (the receiver was deposed by a suspicion quorum). Drop it —
       applying would fork the master, and nothing is lost: replicated
       home-based runs retain every flushed diff at its writer, and the
       promotion that moved the home pulls exactly those retained diffs
       (the writer had created this one before the pull request arrived).
       Only under replication: a barrier-time home *migration* also moves
       [home_of] with epoch flushes still in flight to the old home, and
       there the old home must keep applying — its parked transfer waits
       for exactly those flushes before shipping the master away. *)
    ()
  else
  match Hashtbl.find_opt sys.recovering page with
  | Some rc ->
      (* The home is mid-failover-recovery: applying into the master now
         would be clobbered when the reconstructed copy is installed, so
         stash the flush; [Replica] replays it (in arrival order, which is
         sound — commits racing recovery cannot be causally ordered among
         themselves, since a later same-word writer's fetch is parked until
         recovery completes) after the causally-sorted pull. *)
      rc.System.rc_live <- (writer, index, diff) :: rc.System.rc_live;
      record_flush sys home_node ~writer ~index diff ~applied:false
  | None ->
  let entry = Mem.Page_table.ensure home_node.pt page in
  let hp = home_page sys home_node page in
  let fresh = index > Proto.Vclock.get hp.hp_flush writer in
  let applied = fresh || not (replicated sys) in
  if applied then begin
    let data =
      match entry.Mem.Page_table.data with
      | Some d -> d
      | None ->
          (* First update to a page the home itself never touched: materialize
             the master copy (shared memory is zero-initialized). *)
          let d = Mem.Page_table.attach_copy home_node.pt entry in
          entry.Mem.Page_table.prot <- Mem.Page_table.Read_only;
          d
    in
    Mem.Diff.apply diff data;
    (* The home may concurrently be writing disjoint words of the same page;
       updating its twin keeps its own next diff minimal and correct. *)
    match entry.Mem.Page_table.twin with Some t -> Mem.Diff.apply diff t | None -> ()
  end;
  if fresh then begin
    Proto.Vclock.set hp.hp_flush writer index;
    propagate_update sys home_node ~page ~writer ~index ~diff ~vt:None ~at:done_t
      ~payload:false
  end;
  serve_pending_fetches hp ~at:done_t;
  record_flush sys home_node ~writer ~index diff ~applied

let twin_of entry =
  match entry.Mem.Page_table.twin with
  | Some t -> t
  | None -> invalid_arg "end_interval: dirty page without twin"

(* Diff a dirty page against its twin, and trade the twin's memory for the
   diff's. *)
let take_diff sys node entry twin =
  let page = entry.Mem.Page_table.page in
  let diff = Mem.Diff.create ~page ~twin ~current:(Mem.Page_table.data_exn entry) in
  record_diff_create sys node diff;
  Mem.Page_table.drop_twin entry;
  Mem.Accounting.sub node.stats.Stats.proto_mem (Mem.Layout.page_bytes sys.layout);
  Mem.Accounting.add node.stats.Stats.proto_mem (Mem.Diff.size_bytes diff);
  diff

(* End the node's current interval, if it wrote anything. *)
let end_interval sys node =
  match node.dirty with
  | [] -> ()
  | pages ->
      node.dirty <- [];
      let c = costs sys in
      let page_words = Mem.Layout.page_words sys.layout in
      let index = Proto.Vclock.get node.vt node.id + 1 in
      Proto.Vclock.set node.vt node.id index;
      (* Eager RC needs no write notices at all: updates travel with the
         release itself, so no interval record is kept or forwarded. *)
      let vt_snap =
        if home_based sys || eager_rc sys then None else Some (Proto.Vclock.copy node.vt)
      in
      if not (eager_rc sys) then begin
        let iv = Proto.Interval.make ~node:node.id ~index ~vt:vt_snap ~pages in
        node.known.(node.id) <- iv :: node.known.(node.id);
        account_interval node iv
      end;
      if observing sys then event sys node (Obs.Trace.Interval_end { index; pages });
      let finish_page entry =
        entry.Mem.Page_table.dirty <- false;
        entry.Mem.Page_table.prot <- Mem.Page_table.Read_only;
        charge_protocol node c.Machine.Costs.page_protect
      in
      List.iter
        (fun page ->
          let entry = Mem.Page_table.entry node.pt page in
          let pi = page_info sys node page in
          if eager_rc sys then begin
            (* Eager RC (paper 2, Munin-style): diff the page and push the
               update to every other node caching it; the acknowledgements
               gate this node's next lock handoff or barrier arrival. *)
            let diff = take_diff sys node entry (twin_of entry) in
            let done_t = local_protocol_work sys node ~cost:(diff_create_cost c ~page_words) in
            Mem.Accounting.sub node.stats.Stats.proto_mem (Mem.Diff.size_bytes diff);
            finish_page entry;
            let members = copyset sys page in
            Array.iteri
              (fun m phase ->
                if phase > 0 && m <> node.id then begin
                  let member = sys.nodes.(m) in
                  (* state change at push time; see deliver_rc_update *)
                  let mentry = Mem.Page_table.ensure member.pt page in
                  (match mentry.Mem.Page_table.data with
                  | Some data ->
                      Mem.Diff.apply diff data;
                      record_diff_apply sys member diff ~counted:false;
                      (match mentry.Mem.Page_table.twin with
                      | Some t -> Mem.Diff.apply diff t
                      | None -> ())
                  | None ->
                      (* the member's copy is still being fetched; replay on
                         install *)
                      let pi_m = page_info sys member page in
                      pi_m.rc_backlog <- diff :: pi_m.rc_backlog);
                  node.rc_acks <- node.rc_acks + 1;
                  let bytes = header_bytes + Mem.Diff.size_bytes diff in
                  send sys ~src:node ~dst:m ~at:done_t ~bytes
                    ~update:(Mem.Diff.size_bytes diff) (fun arrival ->
                      deliver_rc_update sys member ~arrival ~writer:node.id diff)
                end)
              members
          end
          else if aurc sys then begin
            let home = home_of sys page in
            Proto.Vclock.set pi.needed node.id index;
            if home = node.id then begin
              let hp = home_page sys node page in
              Proto.Vclock.set hp.hp_flush node.id index;
              finish_page entry;
              serve_pending_fetches hp ~at:node.mach.Machine.Node.ck.Machine.Node.clock
            end
            else begin
              (* The updates went out by write-through as they happened; only
                 the traffic and the release timestamp remain to account.
                 Each automatic update carries a 4-byte address and an
                 8-byte word; the network interface combines them into
                 messages of [au_combine_words] words. *)
              let words = entry.Mem.Page_table.mirror_pending in
              entry.Mem.Page_table.mirror_pending <- 0;
              let combine = max 1 sys.cfg.Config.au_combine_words in
              let au_messages = max 1 ((words + combine - 1) / combine) in
              let payload = 12 * words in
              (* one send models the last combined message + the stamp; the
                 earlier combined messages are pure accounting *)
              record_au_combined node ~messages:(au_messages - 1);
              finish_page entry;
              send sys ~src:node ~dst:home ~at:node.mach.Machine.Node.ck.Machine.Node.clock
                ~bytes:(header_bytes + payload) ~update:payload (fun arrival ->
                  deliver_au_stamp sys sys.nodes.(home) ~arrival ~writer:node.id ~index ~page)
            end
          end
          else if home_based sys then begin
            let home = home_of sys page in
            (* Own flushed level: a later fetch of this page (after an
               invalidation) must see at least our own updates. *)
            Proto.Vclock.set pi.needed node.id index;
            if home = node.id then begin
              (* Home effect: the master copy already holds the writes; no
                 twin, no diff, no message (paper §4.4). With replicas the
                 home keeps a twin after all (see [Faults.make_writable]):
                 its own writes must reach the backups as a payload diff
                 under either scheme — a dead primary's writes have no
                 surviving writer to re-flush them. *)
              let hp = home_page sys node page in
              (if replicated sys then
                 match entry.Mem.Page_table.twin with
                 | Some twin ->
                     (* Retain the diff here too, like any non-home writer:
                        the stream to the backups can be in flight (or
                        silenced by a gray failure) at the moment a
                        suspicion quorum deposes this node, and the
                        promotion pull must then be able to recover the
                        ex-home's own writes from the ex-home itself. *)
                     let diff = take_diff sys node entry twin in
                     let done_t =
                       local_protocol_work sys node ~cost:(diff_create_cost c ~page_words)
                     in
                     let prev =
                       try Hashtbl.find node.own_diffs page with Not_found -> []
                     in
                     Hashtbl.replace node.own_diffs page
                       ((index, diff, Proto.Vclock.copy node.vt) :: prev);
                     propagate_update sys node ~page ~writer:node.id ~index ~diff
                       ~vt:(Some (Proto.Vclock.copy node.vt)) ~at:done_t ~payload:true
                 | None -> ());
              Proto.Vclock.set hp.hp_flush node.id index;
              finish_page entry;
              serve_pending_fetches hp ~at:node.mach.Machine.Node.ck.Machine.Node.clock
            end
            else begin
              let diff = take_diff sys node entry (twin_of entry) in
              let done_t =
                local_protocol_work sys node ~cost:(diff_create_cost c ~page_words)
              in
              if replicated sys then begin
                (* Replicated runs retain the flushed diff (an LRC-like
                   memory profile, the honest price of recoverability): if
                   the home dies, the promoted backup pulls every retained
                   diff back to rebuild the lost flush state. *)
                let prev = try Hashtbl.find node.own_diffs page with Not_found -> [] in
                Hashtbl.replace node.own_diffs page
                  ((index, diff, Proto.Vclock.copy node.vt) :: prev)
              end
              else
                (* Diffs are transient in home-based protocols: the add/sub
                   pair above records the blip for peak-memory accounting. *)
                Mem.Accounting.sub node.stats.Stats.proto_mem (Mem.Diff.size_bytes diff);
              finish_page entry;
              let bytes = header_bytes + Mem.Diff.size_bytes diff in
              send sys ~src:node ~dst:home ~at:done_t ~bytes ~update:(Mem.Diff.size_bytes diff)
                (fun arrival ->
                  deliver_flush sys sys.nodes.(home) ~arrival ~writer:node.id ~index ~page diff)
            end
          end
          else begin
            (* Homeless: create the diff and retain it until GC. *)
            let diff = take_diff sys node entry (twin_of entry) in
            ignore (local_protocol_work sys node ~cost:(diff_create_cost c ~page_words));
            let vt =
              match vt_snap with Some vt -> vt | None -> assert false
            in
            let prev = try Hashtbl.find node.own_diffs page with Not_found -> [] in
            Hashtbl.replace node.own_diffs page ((index, diff, vt) :: prev);
            Proto.Vclock.set pi.applied node.id index;
            (* Replicated homeless runs stream the retained diff to the
               page's replica members, which archive it: a dead writer's
               diffs are then served from the archive, and a dead keeper's
               full page rebuilt from zeros plus the archive. *)
            if replicated sys then
              propagate_archive sys node ~page ~index ~diff ~vt
                ~at:node.mach.Machine.Node.ck.Machine.Node.clock;
            finish_page entry
          end)
        pages

(* Apply a batch of remote interval records (write notices) received on a
   lock grant or barrier release. Pages with a valid local copy are
   invalidated; home-based protocols additionally raise the per-page
   [needed] flush level, homeless ones queue the notice for fault-time diff
   collection. The home node never invalidates its own master copy; instead
   the caller receives the list of own-homed pages whose required flush
   level is not yet reached, and must delay the process until the in-flight
   diffs land (DESIGN.md, timing model). *)
let apply_remote_intervals sys node ivs =
  let c = costs sys in
  (* Batches may arrive newest-first; the seen-before guard below bumps
     vt.(creator) as records are processed, so they must be handled in
     ascending index order or older-but-unseen records would be dropped. *)
  let ivs =
    List.sort
      (fun (a : Proto.Interval.t) (b : Proto.Interval.t) ->
        compare
          (a.Proto.Interval.node, a.Proto.Interval.index)
          (b.Proto.Interval.node, b.Proto.Interval.index))
      ivs
  in
  let home_waits = ref [] in
  List.iter
    (fun (iv : Proto.Interval.t) ->
      let creator = iv.Proto.Interval.node in
      let index = iv.Proto.Interval.index in
      if creator <> node.id && index > Proto.Vclock.get node.vt creator then begin
        node.known.(creator) <- iv :: node.known.(creator);
        account_interval node iv;
        Proto.Vclock.set node.vt creator index;
        charge_protocol node
          (c.Machine.Costs.write_notice_handle *. float_of_int (List.length iv.Proto.Interval.pages));
        if observing sys then
          event sys node
            (Obs.Trace.Write_notice
               { writer = creator; index; pages = List.length iv.Proto.Interval.pages });
        List.iter
          (fun page ->
            let pi = page_info sys node page in
            if home_based sys then begin
              if index > Proto.Vclock.get pi.needed creator then
                Proto.Vclock.set pi.needed creator index;
              if not pi.needed_counted then begin
                pi.needed_counted <- true;
                Mem.Accounting.add node.stats.Stats.proto_mem
                  (Proto.Vclock.size_bytes pi.needed)
              end;
              if home_of sys page = node.id then begin
                let hp = home_page sys node page in
                if not (Proto.Vclock.leq pi.needed hp.hp_flush) then
                  home_waits := (page, hp) :: !home_waits
              end
              else begin
                let entry = Mem.Page_table.ensure node.pt page in
                if
                  entry.Mem.Page_table.data <> None
                  && entry.Mem.Page_table.prot <> Mem.Page_table.No_access
                then begin
                  entry.Mem.Page_table.prot <- Mem.Page_table.No_access;
                  charge_protocol node c.Machine.Costs.page_invalidate
                end
              end
            end
            else if index > Proto.Vclock.get pi.applied creator then begin
              pi.missing <- iv :: pi.missing;
              Mem.Accounting.add node.stats.Stats.proto_mem missing_entry_bytes;
              let entry = Mem.Page_table.ensure node.pt page in
              if
                entry.Mem.Page_table.data <> None
                && entry.Mem.Page_table.prot <> Mem.Page_table.No_access
              then begin
                entry.Mem.Page_table.prot <- Mem.Page_table.No_access;
                charge_protocol node c.Machine.Costs.page_invalidate
              end
            end)
          iv.Proto.Interval.pages
      end)
    ivs;
  !home_waits

(* Interval records the receiver (with cut [their_vt]) has not seen yet.
   Each [known] list is newest-first and index-complete, so the unseen
   records are a prefix: stop scanning at the first seen one (this keeps
   grant construction proportional to its payload, not to history). *)
let missing_intervals node their_vt =
  let acc = ref [] in
  Array.iteri
    (fun creator ivs ->
      let seen = Proto.Vclock.get their_vt creator in
      let rec take = function
        | (iv : Proto.Interval.t) :: rest when iv.Proto.Interval.index > seen ->
            acc := iv :: !acc;
            take rest
        | _ -> ()
      in
      take ivs)
    node.known;
  !acc

let intervals_bytes ivs =
  List.fold_left (fun acc iv -> acc + Proto.Interval.size_bytes iv) 0 ivs
