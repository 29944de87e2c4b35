(* Garbage collection of protocol data (homeless protocols only).

   Triggered at barriers when any node's live protocol memory exceeds the
   configured threshold (paper §3.5). Every shared page's "last writer"
   (the creator of the causally-maximal interval that wrote it) validates its
   copy by pulling all missing diffs; other nodes drop their copies and point
   their copyset hint at the last writer. Diffs and interval records may
   only be discarded once *every* node has finished validating — the nodes
   rendezvous through the barrier manager (Gc_done / discard broadcast)
   before discarding, mirroring the paper's description of the collection
   being "quite complex". *)

open System

(* Deterministic total order refining the causal order (see
   [System.causal_key]: the timestamp-sum key is a linear extension). *)
let later (a : Proto.Interval.t) (b : Proto.Interval.t) =
  let key (iv : Proto.Interval.t) =
    causal_key (Option.get iv.Proto.Interval.vt) ~writer:iv.Proto.Interval.node
      ~index:iv.Proto.Interval.index
  in
  compare_causal_keys (key a) (key b) > 0

(* page -> the designated keeper interval: the maximum under the [later]
   total order. After a barrier every node holds the same set of interval
   records, and a fold with a total order is insensitive to list order, so
   all nodes elect the same keeper; it validates the page while the rest
   drop their copies. *)
let last_writers node =
  let best : (int, Proto.Interval.t) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun ivs ->
      List.iter
        (fun (iv : Proto.Interval.t) ->
          List.iter
            (fun page ->
              match Hashtbl.find_opt best page with
              | Some cur when not (later iv cur) -> ()
              | _ -> Hashtbl.replace best page iv)
            iv.Proto.Interval.pages)
        ivs)
    node.known;
  best

let scan_cost_per_page = 2.

(* Drop all retained diffs and interval records. *)
let discard_all sys node =
  let release (_, diff, _) =
    Mem.Accounting.sub node.stats.Stats.proto_mem (Mem.Diff.size_bytes diff)
  in
  Array.iter
    (Option.iter (fun pi -> List.iter release pi.own_diffs; pi.own_diffs <- []))
    node.pinfo;
  Array.iteri
    (fun creator ivs ->
      List.iter (fun iv -> release_interval node iv) ivs;
      node.known.(creator) <- [])
    node.known;
  event sys node Obs.Trace.Gc_done

(* Validate-or-drop every page this node tracks, then call [k]. Validations
   run sequentially (one outstanding diff collection per node). Pages with
   no writer since the previous collection keep their current keeper: its
   copy (established then) is still the only guaranteed-full one. *)
let sweep sys node ~k =
  let best = last_writers node in
  let to_validate = ref [] in
  (* Node 0 publishes the new keepers; every node computes the same [best],
     and the directory is only consulted for pages *not* in it, so the
     update order relative to other nodes' sweeps is immaterial. *)
  if node.id = 0 then
    Hashtbl.iter
      (fun page (iv : Proto.Interval.t) -> (dir_entry sys page).keeper <- iv.Proto.Interval.node)
      best;
  Mem.Page_table.iter node.pt (fun entry ->
      let page = entry.Mem.Page_table.page in
      charge_protocol node scan_cost_per_page;
      let pi = page_info sys node page in
      let keeper =
        match Hashtbl.find_opt best page with
        | Some iv -> iv.Proto.Interval.node
        | None -> keeper_of sys page
      in
      if keeper = node.id then begin
        if Mem.Page_table.has_copy entry && Faults.still_missing pi <> [] then
          to_validate := page :: !to_validate
      end
      else begin
        (* Non-last-writer: drop the copy; future faults re-fetch from the
           keeper. *)
        if Mem.Page_table.has_copy entry then begin
          Mem.Page_table.drop_copy entry;
          charge_protocol node (costs sys).Machine.Costs.page_invalidate
        end;
        Mem.Accounting.sub node.stats.Stats.proto_mem
          (missing_entry_bytes * List.length pi.missing);
        pi.missing <- [];
        for i = 0 to Proto.Vclock.nprocs pi.applied - 1 do
          Proto.Vclock.set pi.applied i (-1)
        done
      end);
  let rec validate = function
    | [] -> k ()
    | page :: rest ->
        Faults.collect_diffs sys node page ~on_valid:(fun () -> validate rest)
  in
  validate !to_validate

(* The discard rendezvous completes once every live node has reported its
   sweep: a crash-stopped node never will, and the barrier does not wait
   for one either. The manager then broadcasts the discard from [at]. A
   report is the completion it registers in [gc_on_done]. *)
let discard_if_reported sys ~at =
  let waiting (n : node_state) = is_alive sys n.id && not (Hashtbl.mem sys.gc_on_done n.id) in
  if Hashtbl.length sys.gc_on_done > 0 && not (Array.exists waiting sys.nodes) then begin
    let mgr = sys.nodes.(0) in
    let on_done =
      Array.map (fun (n : node_state) -> Hashtbl.find_opt sys.gc_on_done n.id) sys.nodes
    in
    Hashtbl.reset sys.gc_on_done;
    Array.iter
      (fun (n : node_state) ->
        send sys ~src:mgr ~dst:n.id ~at ~bytes:header_bytes ~update:0 (fun release_at ->
            Machine.Node.sync_to n.mach release_at;
            Option.get on_done.(n.id) ()))
      sys.nodes
  end

(* Per-node GC entry point, run between the barrier release and the
   process's resumption. [on_done] fires after the global discard phase. *)
let run sys node ~on_done =
  node.in_gc <- true;
  record_gc_start sys node;
  if spans_on sys then
    event sys node
      (Obs.Trace.Mem_sample { bytes = Mem.Accounting.current node.stats.Stats.proto_mem });
  sweep sys node ~k:(fun () ->
      (* Rendezvous: nobody discards until every live node has validated. *)
      let mgr = sys.nodes.(0) in
      send sys ~src:node ~dst:0 ~at:node.mach.Machine.Node.ck.Machine.Node.clock
        ~bytes:header_bytes ~update:0 (fun arrival ->
          let done_t = serve_compute sys mgr ~arrival ~cost:scan_cost_per_page in
          Hashtbl.replace sys.gc_on_done node.id (fun () ->
              discard_all sys node;
              node.in_gc <- false;
              on_done ());
          discard_if_reported sys ~at:done_t))
