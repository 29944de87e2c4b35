(* Memoized (application x protocol x node-count) run matrix.

   Every paper table/figure slices the same grid of simulations; running
   each cell once and caching the report keeps the full table set
   affordable. The sequential baseline for speedups is the pure computation
   time of a one-node run (protocol-independent; the paper measures real
   sequential executables the same way).

   Cells are self-contained (one [System.create] per run, per-run RNG and
   trace sink), so uncached cells can also be evaluated concurrently on
   OCaml 5 domains via {!prefetch}; the cache and the progress callback are
   mutex-guarded, and per-cell sinks are merged into the shared sink in
   request order so parallel runs stay byte-identical to sequential ones. *)

type key = { k_app : string; k_proto : Svm.Config.protocol; k_np : int }

type t = {
  scale : Apps.Registry.scale;
  verify : bool;
  sink : Obs.Trace.sink option;
  chaos : Machine.Chaos.params option;  (* [None]: Config.make's defaults *)
  fault_batch : int option;
  metrics_interval : float option;
  cache : (key, Svm.Runtime.report) Hashtbl.t;
  mu : Mutex.t;  (* guards [cache] and serializes [progress] calls *)
  mutable progress : (string -> unit) option;
}

let create ?(verify = true) ?sink ?chaos ?fault_batch ?metrics_interval ~scale () =
  {
    scale;
    verify;
    sink;
    chaos;
    fault_batch;
    metrics_interval;
    cache = Hashtbl.create 64;
    mu = Mutex.create ();
    progress = None;
  }

let on_progress t f = t.progress <- Some f

let scale t = t.scale

let key_of (app : Apps.Registry.t) proto np =
  { k_app = app.Apps.Registry.name; k_proto = proto; k_np = np }

let announce t (app : Apps.Registry.t) proto np =
  match t.progress with
  | None -> ()
  | Some f ->
      (* Serialized so concurrent cells cannot interleave progress lines. *)
      Mutex.protect t.mu (fun () ->
          f
            (Printf.sprintf "running %s / %s / %d nodes..." app.Apps.Registry.name
               (Svm.Config.protocol_name proto) np))

let run_cell t ?sink (app : Apps.Registry.t) proto np =
  let cfg =
    Svm.Config.make ~nprocs:np ?chaos:t.chaos ?fault_batch:t.fault_batch
      ?metrics_interval:t.metrics_interval proto
  in
  Svm.Runtime.run ?sink cfg (app.Apps.Registry.body ~verify:t.verify)

let get t (app : Apps.Registry.t) proto np =
  let key = key_of app proto np in
  match Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.cache key) with
  | Some r -> r
  | None ->
      announce t app proto np;
      let r = run_cell t ?sink:t.sink app proto np in
      Mutex.protect t.mu (fun () -> Hashtbl.replace t.cache key r);
      r

let prefetch t pool cells =
  let seen = Hashtbl.create 16 in
  let todo =
    List.filter
      (fun (app, proto, np) ->
        let key = key_of app proto np in
        if Hashtbl.mem seen key || Mutex.protect t.mu (fun () -> Hashtbl.mem t.cache key)
        then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      cells
  in
  (* Each concurrent cell traces into its own sink (same capacity as the
     shared one); after the barrier the sinks are absorbed in request
     order, which reproduces the sequential emission stream exactly. *)
  let results =
    Pool.map pool
      (fun ((app : Apps.Registry.t), proto, np) ->
        announce t app proto np;
        let cell_sink =
          Option.map
            (fun s -> Obs.Trace.create_sink ~capacity:(Obs.Trace.capacity s) ())
            t.sink
        in
        let r = run_cell t ?sink:cell_sink app proto np in
        (key_of app proto np, r, cell_sink))
      todo
  in
  List.iter
    (fun (key, r, cell_sink) ->
      (match (t.sink, cell_sink) with
      | Some dst, Some src -> Obs.Trace.absorb dst src
      | _ -> ());
      Mutex.protect t.mu (fun () -> Hashtbl.replace t.cache key r))
    results

(* Cached cells in a deterministic order for machine-readable dumps:
   application name, then the canonical protocol order of the paper's
   tables (LRC, OLRC, HLRC, OHLRC, AURC, RC — [Config.protocol_rank]),
   then node count. *)
let cells t =
  Hashtbl.fold (fun k r acc -> (k.k_app, k.k_proto, k.k_np, r) :: acc) t.cache []
  |> List.sort (fun (a1, p1, n1, _) (a2, p2, n2, _) ->
         match compare a1 a2 with
         | 0 -> (
             match compare (Svm.Config.protocol_rank p1) (Svm.Config.protocol_rank p2) with
             | 0 -> compare n1 n2
             | c -> c)
         | c -> c)

let to_json t =
  let rm_scale = Apps.Registry.scale_name t.scale in
  let cell (app, proto, np, r) =
    Obs.Json.Obj
      [
        ("app", Obs.Json.String app);
        ("protocol", Obs.Json.String (String.lowercase_ascii (Svm.Config.protocol_name proto)));
        ("nodes", Obs.Json.Int np);
        ("report", Svm.Report_json.encode ~meta:{ Svm.Report_json.rm_app = app; rm_scale } r);
      ]
  in
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Int Svm.Report_json.schema_version);
      ("cells", Obs.Json.List (List.map cell (cells t)));
    ]

(* Sequential baseline: computation-only time of a one-node run. *)
let seq_time t app =
  let r = get t app Svm.Config.Hlrc 1 in
  r.Svm.Runtime.r_nodes.(0).Svm.Runtime.nr_breakdown.Svm.Stats.compute

let speedup t app proto np =
  let seq = seq_time t app in
  let r = get t app proto np in
  seq /. r.Svm.Runtime.r_elapsed

(* Averages of a per-node integer counter. *)
let mean_counter (r : Svm.Runtime.report) f =
  let total = Array.fold_left (fun acc n -> acc + f n.Svm.Runtime.nr_counters) 0 r.Svm.Runtime.r_nodes in
  float_of_int total /. float_of_int (Array.length r.Svm.Runtime.r_nodes)
