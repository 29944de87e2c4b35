(* Adaptive home migration (extension; home-based protocols only).

   The paper fixes each page's home at allocation time and notes the win of
   "intelligently" chosen homes (4.4). Follow-up systems (JIAJIA-style home
   migration) re-home pages whose writer set drifts. This module implements
   that extension at barrier points, which are globally quiescent for the
   relevant state: no page fetch or lock grant can be in flight across a
   barrier (each node runs one process, which must be blocked *in* the
   barrier), so the only in-flight protocol traffic is diff flushes — and
   the transfer below is gated on exactly those through the home page's
   pending mechanism.

   At barrier completion the manager counts, per page, the writers of the
   epoch's intervals; when a page's dominant writer is not its home, the
   directory is updated and the old home ships the master copy and flush
   timestamps to the new home once every announced diff has landed. The
   barrier's releases wait until every transfer has landed: a node resumed
   earlier could flush a diff to the new home before the master it applies
   to, and the master's install would then erase it. *)

open System

let decision_cost_per_page = 2.

(* page -> (new_home, per-writer flush level the transfer must wait for),
   from the epoch's interval records. *)
let plan sys epoch_ivs =
  let writes : (int, (int * int) list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (iv : Proto.Interval.t) ->
      List.iter
        (fun page ->
          let prev = try Hashtbl.find writes page with Not_found -> [] in
          Hashtbl.replace writes page ((iv.Proto.Interval.node, iv.Proto.Interval.index) :: prev))
        iv.Proto.Interval.pages)
    epoch_ivs;
  Hashtbl.fold
    (fun page events acc ->
      let counts = Hashtbl.create 8 in
      List.iter
        (fun (w, _) ->
          Hashtbl.replace counts w (1 + try Hashtbl.find counts w with Not_found -> 0))
        events;
      (* dominant writer: strictly more epoch intervals than anyone else *)
      let dominant =
        Hashtbl.fold
          (fun w c best ->
            match best with
            | Some (_, bc) when bc > c -> best
            | Some (bw, bc) when bc = c -> Some ((min bw w, bc) : int * int)
            | _ -> Some (w, c))
          counts None
      in
      match dominant with
      | Some (w, c) when 2 * c > List.length events (* majority of the epoch *) ->
          (* Hysteresis: move only when the same writer dominated the
             previous epoch too, so a one-off phase (e.g. initialization by
             process 0) cannot thrash the placement. *)
          let stable = Hashtbl.find_opt sys.migration_prev page = Some w in
          Hashtbl.replace sys.migration_prev page w;
          if stable && w <> home_of sys page then begin
            let required = Proto.Vclock.create ~nprocs:(nprocs sys) in
            List.iter
              (fun (writer, index) ->
                if index > Proto.Vclock.get required writer then
                  Proto.Vclock.set required writer index)
              events;
            (page, w, required) :: acc
          end
          else acc
      | _ ->
          Hashtbl.remove sys.migration_prev page;
          acc)
    writes []

(* Ship the master copy and flush levels from the old home to the new one.
   Runs once the old home's flush level covers [required]; [landed] runs
   when the new home has installed the copy. *)
let transfer sys ~page ~old_home ~new_home ~landed ~at =
  let old_node = sys.nodes.(old_home) in
  let new_node = sys.nodes.(new_home) in
  let hentry = Mem.Page_table.ensure old_node.pt page in
  let snapshot = Mem.Words.copy (Mem.Page_table.materialize old_node.pt hentry) in
  let hp_old = home_page sys old_node page in
  let flush = Proto.Vclock.copy hp_old.hp_flush in
  assert (hp_old.hp_pending = []);
  (* The old home is no longer authoritative: drop the directory entry and
     invalidate its (now ordinary) cached copy. *)
  Hashtbl.remove old_node.homes page;
  Mem.Accounting.sub old_node.stats.Stats.proto_mem (Proto.Vclock.size_bytes flush);
  hentry.Mem.Page_table.prot <- Mem.Page_table.No_access;
  record_home_migration sys old_node ~page ~dst:new_home;
  let bytes = header_bytes + Mem.Layout.page_bytes sys.layout + Proto.Vclock.size_bytes flush in
  send sys ~src:old_node ~dst:new_home ~at ~bytes ~update:(Mem.Layout.page_bytes sys.layout)
    (fun arrival ->
      let done_t = serve sys new_node ~arrival ~cost:decision_cost_per_page in
      let entry = Mem.Page_table.ensure new_node.pt page in
      Faults.install_copy sys entry snapshot;
      entry.Mem.Page_table.mirror <- None;
      entry.Mem.Page_table.prot <- Mem.Page_table.Read_only;
      let hp_new = home_page sys new_node page in
      Proto.Vclock.merge_into hp_new.hp_flush flush;
      serve_pending hp_new ~at:done_t;
      landed done_t)

(* Entry point, called by the barrier manager at completion with the
   barrier's releases as [release]. With no page to move, [release] runs
   at once; otherwise it runs when the last transfer has landed, with the
   manager's clock at that landing. *)
let run sys epoch_ivs release =
  let moves =
    if home_based sys && sys.cfg.Config.home_migration then plan sys epoch_ivs else []
  in
  let mgr = sys.nodes.(0) in
  let pending = ref (List.length moves) in
  let landed at =
    decr pending;
    if !pending = 0 then begin
      Machine.Node.sync_to mgr.mach at;
      release ()
    end
  in
  if moves = [] then release ();
  List.iter
    (fun (page, new_home, required) ->
      charge_protocol mgr decision_cost_per_page;
      let old_home = home_of sys page in
      Hashtbl.replace sys.home_tbl page new_home;
      (* Every node's automatic-update mapping (AURC) now points at a
         stale master: tear them down; the next write fault re-binds. *)
      Array.iter
        (fun (n : node_state) ->
          if n.id <> new_home then begin
            let e = Mem.Page_table.ensure n.pt page in
            e.Mem.Page_table.mirror <- None
          end)
        sys.nodes;
      let old_node = sys.nodes.(old_home) in
      let hp_old = home_page sys old_node page in
      let start at = transfer sys ~page ~old_home ~new_home ~landed ~at in
      if Proto.Vclock.leq required hp_old.hp_flush then
        start mgr.mach.Machine.Node.ck.Machine.Node.clock
      else
        (* System-initiated transfer, not a node's fetch; attribute it to
           the receiving home. Migration excludes replication (Config
           forbids the combination), so this park is never fenced. *)
        park_pending hp_old ~needed:required ~requester:new_home start)
    moves
