(* Per-cell critical-path composition.

   One profiled run per (application x protocol x node count) cell — each
   with its own causal-trace sink, since a critical path is a property of a
   single run — rendered as a composition table: how much of the cell's
   end-to-end time is on-path local execution vs data / lock / barrier / GC
   wait, and which page, lock and barrier straggler carry the most blame.
   This is the Figure-3 story told by exact path attribution instead of
   per-node averages: a bucket can dominate the averages yet never bound
   the run (it overlaps the path), and this table tells the two apart. *)

let pct finish x = if finish > 0. then 100. *. x /. finish else 0.

let cell ~verify ~chaos ?trace_cap app proto np =
  let cfg = Svm.Config.make ~nprocs:np ~chaos ~trace_spans:true proto in
  let sink = Obs.Trace.create_sink ?capacity:trace_cap () in
  ignore (Svm.Runtime.run ~sink cfg (app.Apps.Registry.body ~verify));
  (Obs.Critical_path.analyze sink, sink)

let report ppf ?(pool = Pool.sequential) ?(verify = true) ?(chaos = Machine.Chaos.none)
    ?trace_cap ~scale ~node_counts () =
  Format.fprintf ppf "@.=== Critical-path composition (on-path blame, %% of finish time) ===@.@.";
  Format.fprintf ppf
    "%-12s %-6s %4s  %12s %6s %6s %6s %6s %6s  %-10s %-10s %s@." "app" "proto" "np"
    "finish(us)" "local" "data" "lock" "barr" "gc" "top page" "top lock" "straggler";
  (* Each cell already has its own sink, so profiled cells are independent
     simulations: evaluate the whole grid through the pool (in row order),
     then render — identical bytes for any pool width. *)
  let grid =
    List.concat_map
      (fun (app : Apps.Registry.t) ->
        List.concat_map
          (fun proto -> List.map (fun np -> (app, proto, np)) node_counts)
          Svm.Config.all_protocols)
      (Apps.Registry.all scale)
  in
  let rows =
    Pool.map pool
      (fun (app, proto, np) ->
        let cp, sink = cell ~verify ~chaos ?trace_cap app proto np in
        ((app, proto, np), cp, sink))
      grid
  in
  List.iter
    (fun (((app : Apps.Registry.t), proto, np), cp, sink) ->
              let f = cp.Obs.Critical_path.cp_finish in
              let blame = function
                | [] -> "-"
                | rb :: _ -> string_of_int rb.Obs.Critical_path.rb_id
              in
              (* Straggler of the epoch with the widest arrival spread. *)
              let straggler =
                List.fold_left
                  (fun acc (es : Obs.Critical_path.epoch_slack) ->
                    match acc with
                    | Some (best : Obs.Critical_path.epoch_slack)
                      when best.Obs.Critical_path.es_spread >= es.Obs.Critical_path.es_spread
                      ->
                        acc
                    | _ -> Some es)
                  None cp.Obs.Critical_path.cp_epochs
              in
              let straggler =
                match straggler with
                | None -> "-"
                | Some es ->
                    Printf.sprintf "node %d (epoch %d)" es.Obs.Critical_path.es_straggler
                      es.Obs.Critical_path.es_epoch
              in
              Format.fprintf ppf
                "%-12s %-6s %4d  %12.0f %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%%  %-10s %-10s %s%s@."
                app.Apps.Registry.name
                (Svm.Config.protocol_name proto)
                np f
                (pct f cp.Obs.Critical_path.cp_local)
                (pct f cp.Obs.Critical_path.cp_data)
                (pct f cp.Obs.Critical_path.cp_lock)
                (pct f cp.Obs.Critical_path.cp_barrier)
                (pct f cp.Obs.Critical_path.cp_gc)
                (blame cp.Obs.Critical_path.cp_top_pages)
                (blame cp.Obs.Critical_path.cp_top_locks)
                straggler
                (if Obs.Trace.dropped sink > 0 then "  [trace truncated]" else ""))
    rows
