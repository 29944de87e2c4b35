(* Synchronization: distributed locks and the centralized barrier.

   Locks follow the paper's §3.5 design: each lock has a manager (assigned
   round-robin over the nodes) tracking the last requester; requests are
   forwarded to that node, which grants the lock once it is free. The grant
   carries the releaser's knowledge of all intervals the requester has not
   seen. Re-acquiring a lock this node still owns costs nothing.

   Barriers use a centralized manager (node 0): arrivals carry the write
   notices for the sender's own new intervals; the manager computes the
   maximal timestamp and selectively forwards missing notices with each
   release. Barrier completion also triggers garbage collection for
   homeless protocols when some node's protocol memory exceeded the
   threshold. *)

open System

let manager_of sys lock = lock mod nprocs sys

(* The paper's prototypes always serviced lock requests on the compute
   processor (3.4); its 4.3 notes the cost would drop to ~150 us on the
   co-processor. [coproc_locks] enables that extension for the overlapped
   protocols. *)
let serve_lock sys node ~arrival ~cost =
  if overlapped sys && sys.cfg.Config.coproc_locks then serve_coproc sys node ~arrival ~cost
  else serve_compute sys node ~arrival ~cost

let lock_state sys node lock =
  match Hashtbl.find_opt node.locks lock with
  | Some ls -> ls
  | None ->
      let ls =
        {
          lk_token = node.id = manager_of sys lock;
          lk_held = false;
          lk_waiting = false;
          lk_waiter = None;
        }
      in
      Hashtbl.replace node.locks lock ls;
      ls

(* Home-based protocols: a node whose *own* master copies have announced but
   not-yet-arrived updates must not run application code until the in-flight
   diffs land (DESIGN.md, home-wait). Resumes the blocked process when all
   waits clear. *)
let resume_after_home_waits sys node waits =
  let waits =
    List.sort_uniq (fun (a, _) (b, _) -> compare a b) waits
    |> List.filter (fun (page, hp) ->
           let pi = page_info sys node page in
           not (Proto.Vclock.leq pi.needed hp.hp_flush))
  in
  match waits with
  | [] -> resume sys node ~at:node.mach.Machine.Node.ck.Machine.Node.clock
  | _ ->
      let remaining = ref (List.length waits) in
      List.iter
        (fun (page, hp) ->
          if observing sys then event sys node (Obs.Trace.Home_wait { page });
          await_own_master sys node hp (fun () ->
              decr remaining;
              if !remaining = 0 then
                resume sys node ~at:node.mach.Machine.Node.ck.Machine.Node.clock))
        waits

(* ------------------------------------------------------------------ *)
(* Locks                                                              *)

let grant_bytes sys ivs =
  header_bytes + (4 * nprocs sys) + Intervals.intervals_bytes ivs

(* Send the lock to [requester]: end the holder's interval, gather the
   intervals the requester lacks, ship them with the holder's timestamp.
   [at] is when the holder's processor starts this work. *)
let send_grant sys holder ~lock ~requester ~req_vt ~at =
  let c0 = holder.mach.Machine.Node.ck.Machine.Node.clock in
  Intervals.end_interval sys holder;
  charge_protocol holder (costs sys).Machine.Costs.lock_service;
  let inline_work = holder.mach.Machine.Node.ck.Machine.Node.clock -. c0 in
  let ivs = Intervals.missing_intervals holder req_vt in
  let vt_copy = Proto.Vclock.copy holder.vt in
  let requester_node = sys.nodes.(requester) in
  if observing sys then
    event sys holder (Obs.Trace.Lock_grant { lock; dst = requester; intervals = List.length ivs });
  send sys ~src:holder ~dst:requester ~at:(at +. inline_work) ~bytes:(grant_bytes sys ivs)
    ~update:0 (fun arrival ->
      Machine.Node.sync_to requester_node.mach arrival;
      let ls = lock_state sys requester_node lock in
      ls.lk_token <- true;
      ls.lk_held <- true;
      ls.lk_waiting <- false;
      let home_waits = Intervals.apply_remote_intervals sys requester_node ivs in
      Proto.Vclock.merge_into requester_node.vt vt_copy;
      resume_after_home_waits sys requester_node home_waits)

(* A forwarded request reaches the current chain tail. *)
let receive_forward sys holder ~lock ~requester ~req_vt ~arrival =
  let done_t = serve_lock sys holder ~arrival ~cost:(costs sys).Machine.Costs.lock_service in
  let ls = lock_state sys holder lock in
  (* Receiving a remote lock request delimits an interval (paper §2.1), even
     when the grant must wait for our release. *)
  let c0 = holder.mach.Machine.Node.ck.Machine.Node.clock in
  Intervals.end_interval sys holder;
  let extra = holder.mach.Machine.Node.ck.Machine.Node.clock -. c0 in
  if ls.lk_held || ls.lk_waiting then begin
    assert (ls.lk_waiter = None);
    ls.lk_waiter <- Some (requester, req_vt);
    if observing sys then event sys holder (Obs.Trace.Lock_queued { lock; requester })
  end
  else begin
    assert ls.lk_token;
    ls.lk_token <- false;
    (* Eager RC: the handoff must not overtake this node's pushed updates. *)
    rc_when_drained sys holder (fun drain_at ->
        send_grant sys holder ~lock ~requester ~req_vt ~at:(Float.max drain_at (done_t +. extra)))
  end

(* The manager forwards the request to the last requester and records the
   new chain tail. *)
let receive_request sys ~lock ~requester ~req_vt ~arrival =
  let mgr = sys.nodes.(manager_of sys lock) in
  let done_t = serve_lock sys mgr ~arrival ~cost:(costs sys).Machine.Costs.lock_service in
  let last =
    match Hashtbl.find_opt sys.lock_last lock with Some n -> n | None -> mgr.id
  in
  Hashtbl.replace sys.lock_last lock requester;
  assert (last <> requester);
  if last = mgr.id then receive_forward sys mgr ~lock ~requester ~req_vt ~arrival:done_t
  else
    send sys ~src:mgr ~dst:last ~at:done_t ~bytes:(header_bytes + (4 * nprocs sys)) ~update:0
      (fun arr -> receive_forward sys sys.nodes.(last) ~lock ~requester ~req_vt ~arrival:arr)

let acquire sys node lock k =
  let ls = lock_state sys node lock in
  assert (not ls.lk_held);
  assert (not ls.lk_waiting);
  if ls.lk_token then begin
    (* Token still here and nobody asked for it: free reacquire. *)
    ls.lk_held <- true;
    record_lock_acquire sys node ~lock ~remote:false;
    block sys node ~resource:lock Wait_lock k;
    resume sys node ~at:node.mach.Machine.Node.ck.Machine.Node.clock
  end
  else begin
    ls.lk_waiting <- true;
    (* Performing a remote acquire delimits the current interval. *)
    Intervals.end_interval sys node;
    block sys node ~resource:lock Wait_lock k;
    record_lock_acquire sys node ~lock ~remote:true;
    let req_vt = Proto.Vclock.copy node.vt in
    let mgr = manager_of sys lock in
    if mgr = node.id then
      receive_request sys ~lock ~requester:node.id ~req_vt ~arrival:node.mach.Machine.Node.ck.Machine.Node.clock
    else
      send sys ~src:node ~dst:mgr ~at:node.mach.Machine.Node.ck.Machine.Node.clock
        ~bytes:(header_bytes + (4 * nprocs sys)) ~update:0 (fun arrival ->
          receive_request sys ~lock ~requester:node.id ~req_vt ~arrival)
  end

let release sys node lock =
  let ls = lock_state sys node lock in
  if not ls.lk_held then invalid_arg "unlock: lock not held";
  ls.lk_held <- false;
  charge_protocol node (costs sys).Machine.Costs.lock_service;
  match ls.lk_waiter with
  | None -> () (* lazy release: keep the token until someone asks *)
  | Some (requester, req_vt) ->
      ls.lk_waiter <- None;
      ls.lk_token <- false;
      rc_when_drained sys node (fun drain_at ->
          send_grant sys node ~lock ~requester ~req_vt
            ~at:(Float.max drain_at node.mach.Machine.Node.ck.Machine.Node.clock))

(* ------------------------------------------------------------------ *)
(* Barriers                                                           *)

(* Discard every interval record (home-based protocols do this at each
   barrier: after the global exchange nobody can need them again). *)
let discard_interval_records node =
  Array.iteri
    (fun creator ivs ->
      List.iter (fun iv -> release_interval node iv) ivs;
      node.known.(creator) <- [])
    node.known

(* Once every node has applied its release the barrier's knowledge is fully
   distributed; that is the point where the paranoid coherence invariant is
   decidable (testing aid; see Invariants). *)
let note_release_applied sys =
  sys.barrier.bar_released <- sys.barrier.bar_released + 1;
  if sys.barrier.bar_released = sys.barrier.bar_target then begin
    sys.barrier.bar_released <- 0;
    Invariants.check sys
  end

(* A barrier completes once every *live* node has arrived: a crash-stopped
   node never will, and waiting for it would wedge the whole machine. A
   victim that arrived before its kill stays in the queue — its reported
   intervals are real committed history and must still be folded in. *)
let all_live_arrived sys =
  let bar = sys.barrier in
  let arrived id = List.exists (fun (from, _, _) -> from = id) bar.bar_queue in
  bar.bar_arrived > 0
  && Array.for_all (fun (n : node_state) -> (not (is_alive sys n.id)) || arrived n.id) sys.nodes

(* Apply a barrier release at [node], whose [home_waits] came from applying
   the records it lacked, then collect garbage or resume the process. *)
let apply_release sys node ~max_vt ~gc home_waits =
  Proto.Vclock.merge_into node.vt max_vt;
  if home_based sys then discard_interval_records node;
  note_release_applied sys;
  if gc then begin
    rebucket_block sys node Wait_gc;
    Gc.run sys node ~on_done:(fun () ->
        resume sys node ~at:node.mach.Machine.Node.ck.Machine.Node.clock)
  end
  else resume_after_home_waits sys node home_waits

let complete_barrier sys =
  let bar = sys.barrier in
  let mgr = sys.nodes.(0) in
  let arrivals = bar.bar_queue in
  bar.bar_queue <- [];
  bar.bar_arrived <- 0;
  bar.bar_epoch <- bar.bar_epoch + 1;
  let gc = homeless_lazy sys && bar.bar_mem_high in
  bar.bar_mem_high <- false;
  (* Fold everyone's knowledge into the manager: all records first, then the
     arrival timestamps. Merging a timestamp earlier would mark intervals as
     seen before their records (from a later arrival) were processed, and
     their invalidations would be lost. *)
  let all_ivs = List.concat_map (fun (_, _, ivs) -> ivs) arrivals in
  let mgr_waits = Intervals.apply_remote_intervals sys mgr all_ivs in
  List.iter (fun (_, vt, _) -> Proto.Vclock.merge_into mgr.vt vt) arrivals;
  let max_vt = Proto.Vclock.copy mgr.vt in
  (* The release-apply rendezvous counts the manager plus the live remote
     arrivals; a release addressed to a node that died after arriving is
     dropped by the dead-link guard and never applied. *)
  bar.bar_released <- 0;
  bar.bar_target <-
    1 + List.length (List.filter (fun (from, _, _) -> from <> 0 && is_alive sys from) arrivals);
  (* Adaptive home migration (extension): re-home drifting pages before the
     releases go out, so everyone resumes against the new directory and
     the moved masters. *)
  Migration.run sys all_ivs (fun () ->
      let c = costs sys in
      if observing sys then
        event sys mgr (Obs.Trace.Barrier_release { epoch = bar.bar_epoch; gc });
      (* Releases to the other nodes, each with the records it lacks. *)
      List.iter
        (fun (from, vt, _) ->
          if from <> 0 && is_alive sys from then begin
            let node = sys.nodes.(from) in
            let ivs = Intervals.missing_intervals mgr vt in
            charge_protocol mgr c.Machine.Costs.barrier_service;
            let bytes = header_bytes + (4 * nprocs sys) + Intervals.intervals_bytes ivs in
            send sys ~src:mgr ~dst:from ~at:mgr.mach.Machine.Node.ck.Machine.Node.clock ~bytes
              ~update:0 (fun arrival ->
                Machine.Node.sync_to node.mach arrival;
                apply_release sys node ~max_vt ~gc (Intervals.apply_remote_intervals sys node ivs))
          end)
        arrivals;
      (* The manager applies its own release locally; its records went in
         above, and [max_vt] is its own timestamp. *)
      apply_release sys mgr ~max_vt ~gc mgr_waits)

let arrive sys ~from ~vt ~ivs ~mem =
  let bar = sys.barrier in
  bar.bar_queue <- (from, vt, ivs) :: bar.bar_queue;
  bar.bar_arrived <- bar.bar_arrived + 1;
  if mem > sys.cfg.Config.gc_threshold_bytes then bar.bar_mem_high <- true;
  if all_live_arrived sys then complete_barrier sys

(* Failure-detector hook: a node just got declared dead. If the barrier or
   the GC's discard rendezvous was only waiting on the victim, complete it
   now — otherwise every live node would block forever on a message that
   can no longer come. *)
let note_node_death sys =
  if all_live_arrived sys then complete_barrier sys;
  Gc.discard_if_reported sys ~at:sys.nodes.(0).mach.Machine.Node.ck.Machine.Node.clock

let barrier sys node k =
  Stats.mark_epoch node.stats;
  Intervals.end_interval sys node;
  block sys node ~resource:sys.barrier.bar_epoch Wait_barrier k;
  (* Report the node's own new intervals; every other creator reports its
     own, so the manager hears about everything. *)
  let own =
    List.filter
      (fun (iv : Proto.Interval.t) -> iv.Proto.Interval.index > node.reported)
      node.known.(node.id)
  in
  node.reported <- Proto.Vclock.get node.vt node.id;
  let vt = Proto.Vclock.copy node.vt in
  let mem = Mem.Accounting.current node.stats.Stats.proto_mem in
  record_barrier_arrive sys node ~epoch:sys.barrier.bar_epoch ~intervals:(List.length own);
  if spans_on sys then event sys node (Obs.Trace.Mem_sample { bytes = mem });
  (* Eager RC: the barrier arrival waits for this node's update acks. *)
  rc_when_drained sys node (fun drain_at ->
      let at = Float.max drain_at node.mach.Machine.Node.ck.Machine.Node.clock in
      if node.id = 0 then arrive sys ~from:0 ~vt ~ivs:own ~mem
      else
        let bytes = header_bytes + (4 * nprocs sys) + Intervals.intervals_bytes own in
        send sys ~src:node ~dst:0 ~at ~bytes ~update:0 (fun arrival ->
            let c = costs sys in
            ignore
              (serve_compute sys sys.nodes.(0) ~arrival
                 ~cost:
                   (c.Machine.Costs.barrier_service
                   +. (c.Machine.Costs.write_notice_handle *. float_of_int (List.length own))));
            arrive sys ~from:node.id ~vt ~ivs:own ~mem))
