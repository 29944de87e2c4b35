(* Global coherence invariants, checked at barriers when [Config.paranoid]
   is set (testing aid; not part of the simulated cost model).

   At a barrier every write notice has been collected by the manager and
   every process is suspended, so the memory-consistency obligations are
   globally decidable:

   - A node's copy is "current" when it has no unapplied notices (homeless),
     or its required flush level is met at the home (home-based), or simply
     always (eager RC, where updates push at once).
   - All current copies of a page must be bitwise identical: any difference
     is a lost update, a misordered diff application, or a directory bug —
     exactly the failure modes of the bugs recorded in DESIGN.md 7. *)

open System

exception Violation of string

(* Side-effect-free by design: the final-memory digest in [Runtime.collect]
   calls this outside any synchronization point, so it must not create home
   records or page-table entries (which would perturb memory accounting and
   break report byte-identity). A home record that was never created has a
   zero flush vector, which is exactly what an absent entry means. *)
let page_currents sys page =
  Array.fold_left
    (fun acc (node : node_state) ->
      if not (is_alive sys node.id) then
        (* A crash-stopped node's copies are unreachable and may be stale
           mid-write: they are outside the coherence obligation (and the
           final-memory digest, which must match the fault-free run's). *)
        acc
      else if page >= Array.length node.pinfo then acc
      else
        match node.pinfo.(page) with
        | None -> acc
        | Some pi ->
            let entry = Mem.Page_table.find node.pt page in
            if not (Mem.Page_table.has_copy entry) then acc
            else
              let current =
                if eager_rc sys then true
                else if home_based sys then
                  (* current iff every required flush has landed at home *)
                  let home = sys.nodes.(home_of sys page) in
                  let flush_met =
                    match if page < Array.length home.homes then home.homes.(page) else None with
                    | Some hp -> Proto.Vclock.leq pi.needed hp.hp_flush
                    | None -> Proto.Vclock.is_initial pi.needed
                  in
                  entry.Mem.Page_table.prot <> Mem.Page_table.No_access && flush_met
                else
                  entry.Mem.Page_table.prot <> Mem.Page_table.No_access
                  && Faults.still_missing pi = []
              in
              (* a page being written right now may legitimately lead *)
              if current && not entry.Mem.Page_table.dirty then
                (node.id, entry.Mem.Page_table.data) :: acc
              else acc)
    [] sys.nodes

let check_page sys page =
  match page_currents sys page with
  | [] | [ _ ] -> ()
  | (ref_node, ref_data) :: rest ->
      List.iter
        (fun (node, data) ->
          Mem.Words.iteri
            (fun off v ->
              let r = Mem.Words.get ref_data off in
              if Int64.bits_of_float v <> Int64.bits_of_float r then
                raise
                  (Violation
                     (Printf.sprintf
                        "page %d word %d: node %d has %.17g, node %d has %.17g" page off node v
                        ref_node r)))
            data)
        rest

(* [tail] is a physical suffix of [list]; tail-recursive. *)
let rec is_suffix tail list =
  list == tail || match list with [] -> false | _ :: rest -> is_suffix tail rest

(* Write notices are shared, not copied: every live node's list of a
   creator's records is a physical suffix of the creator's own list (a
   crash-stopped node's lists are frozen, and outside the obligation).
   Invoked by the barrier manager at completion, before it applies the
   arrivals: every live node has arrived, so no grant is in flight. *)
let check_chains sys =
  if sys.cfg.Config.paranoid then
    Array.iter
      (fun (node : node_state) ->
        if is_alive sys node.id then
          Array.iteri
            (fun creator list ->
              if not (is_suffix list sys.nodes.(creator).known.(creator)) then
                raise
                  (Violation
                     (Printf.sprintf
                        "node %d's records of node %d are not a suffix of node %d's own list"
                        node.id creator creator)))
            node.known)
      sys.nodes

(* [Svm.Api]'s hit path reads a frame on an entry's protection alone: an
   accessible entry must hold a full frame, and the shared sentinel entry
   and empty frame, which stand for every page a node never touched or
   does not cache, must keep their initial state. *)
let check_page_tables sys =
  let module P = Mem.Page_table in
  let s = P.no_entry in
  let initial =
    s.P.page = -1 && s.P.prot = P.No_access && s.P.data == P.no_copy
    && Option.is_none s.P.twin && (not s.P.dirty) && Option.is_none s.P.mirror
    && s.P.mirror_pending = 0 && Array.length s.P.log = 0 && s.P.log_free = 0
    && Mem.Words.length P.no_copy = 0
  in
  if not initial then raise (Violation "the page tables' sentinel entry or empty frame was written");
  let page_words = Mem.Layout.page_words sys.layout in
  Array.iter
    (fun (node : node_state) ->
      P.iter node.pt (fun e ->
          if e.P.prot <> P.No_access && Mem.Words.length e.P.data <> page_words then
            raise
              (Violation
                 (Printf.sprintf "node %d can access page %d without a copy" node.id e.P.page))))
    sys.nodes

(* Invoked once every node has applied the barrier's release. *)
let check sys =
  if sys.cfg.Config.paranoid then begin
    if not (Proto.Vclock.is_initial sys.unused_clock) then
      raise (Violation "a page's clock of the other protocol family was written");
    check_page_tables sys;
    let npages = Mem.Layout.pages_for sys.layout sys.next_addr in
    for page = 0 to npages - 1 do
      check_page sys page
    done
  end
