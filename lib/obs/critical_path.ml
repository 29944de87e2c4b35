(* Critical-path analysis over a trace sink.

   The causal layer (Config.trace_spans) records every wait interval as a
   Wait_begin/Wait_end pair and every cross-node dependency as a
   Msg_send/Msg_recv pair on a FIFO channel. That is enough to rebuild the
   dependency chain that actually bounded the run: starting from the last
   node at the finish time, walk backwards — the time since the node's last
   wait ended was local execution (compute + protocol); the wait itself
   either resolved locally (attribute its full length to its bucket and
   continue before it began) or was completed by a message (attribute the
   segment back to the matched send to the wait's bucket and jump to the
   sender at the send time). Every segment is attributed to exactly one
   bucket, so the attribution telescopes to the finish time — "blame" here
   is exact, not sampled.

   Home-wait spans (Wb_home) are nested annotations inside an outer
   lock/barrier wait: the walk skips them (the outer span owns the time)
   and they are aggregated separately instead.

   Chaos caveat: message pairing is FIFO per channel, which matches the
   fault-free network exactly; under fault injection retransmitted copies
   can shift the pairing by one, so path blame on chaos runs is an
   approximation. *)

type resource_blame = {
  rb_id : int;  (* page / lock id *)
  rb_wait : float;  (* on-path wait attributed to it, us *)
  rb_count : int;  (* on-path waits (lock: handoff-chain length) *)
}

type epoch_slack = {
  es_epoch : int;
  es_straggler : int;  (* last node to arrive *)
  es_spread : float;  (* last arrival - first arrival, us *)
  es_last : float;  (* last arrival time, us *)
}

type t = {
  cp_finish : float;
  cp_end_node : int;
  cp_local : float;
  cp_data : float;
  cp_lock : float;
  cp_barrier : float;
  cp_gc : float;
  cp_hops : int;
  cp_segments : int;
  cp_top_pages : resource_blame list;
  cp_top_locks : resource_blame list;
  cp_home_pages : resource_blame list;  (* aggregate home waits, not on-path *)
  cp_epochs : epoch_slack list;
}

(* ------------------------------------------------------------------ *)
(* Event digestion                                                    *)

type span = {
  sp_node : int;
  sp_b : float;
  sp_e : float;
  sp_bucket : Trace.wait_bucket;
  sp_res : int;
}

type recv = { rv_t : float; rv_src : int; rv_send_t : float }

(* Per-node spans (sorted by end time) and matched receives (sorted by
   arrival), rebuilt from one pass over the sink. *)
type digest = {
  dg_spans : span array array;  (* per node *)
  dg_recvs : recv array array;  (* per node *)
  dg_home : (int, float * int) Hashtbl.t;  (* page -> (total wait, count) *)
  dg_arrivals : (int, (int * float) list ref) Hashtbl.t;  (* epoch -> (node, t) *)
  dg_last_time : float;
  dg_last_node : int;
}

let digest sink =
  let open_spans : (int, Trace.event) Hashtbl.t = Hashtbl.create 64 in
  let spans : span list ref array ref = ref [||] in
  let recvs : recv list ref array ref = ref [||] in
  let msg_q : (int * int, float Queue.t) Hashtbl.t = Hashtbl.create 64 in
  let home : (int, float * int) Hashtbl.t = Hashtbl.create 16 in
  let arrivals : (int, (int * float) list ref) Hashtbl.t = Hashtbl.create 16 in
  let last_time = ref 0. and last_node = ref 0 in
  let grow : 'a. int -> 'a list ref array -> 'a list ref array =
   fun node arr ->
    let n = Array.length arr in
    if node < n then arr
    else Array.init (max (node + 1) (2 * n)) (fun i -> if i < n then arr.(i) else ref [])
  in
  let ensure node =
    spans := grow node !spans;
    recvs := grow node !recvs
  in
  let fifo key =
    match Hashtbl.find_opt msg_q key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace msg_q key q;
        q
  in
  Trace.iter sink (fun ev ->
      let node = ev.Trace.node in
      ensure node;
      if ev.Trace.time > !last_time then begin
        last_time := ev.Trace.time;
        last_node := node
      end;
      match ev.Trace.kind with
      | Trace.Wait_begin { span; _ } -> Hashtbl.replace open_spans span ev
      | Trace.Wait_end { span; bucket; resource } -> (
          match Hashtbl.find_opt open_spans span with
          | None -> ()
          | Some b ->
              Hashtbl.remove open_spans span;
              let sp =
                {
                  sp_node = b.Trace.node;
                  sp_b = b.Trace.time;
                  sp_e = ev.Trace.time;
                  sp_bucket = bucket;
                  sp_res = resource;
                }
              in
              if bucket = Trace.Wb_home then begin
                let w, c =
                  match Hashtbl.find_opt home resource with Some x -> x | None -> (0., 0)
                in
                Hashtbl.replace home resource (w +. (sp.sp_e -. sp.sp_b), c + 1)
              end
              else begin
                ensure sp.sp_node;
                let cell = !spans.(sp.sp_node) in
                cell := sp :: !cell
              end)
      | Trace.Msg_send { dst; _ } -> Queue.push ev.Trace.time (fifo (node, dst))
      | Trace.Msg_recv { src; _ } -> (
          match Queue.take_opt (fifo (src, node)) with
          | Some send_t ->
              let cell = !recvs.(node) in
              cell := { rv_t = ev.Trace.time; rv_src = src; rv_send_t = send_t } :: !cell
          | None -> ())
      | Trace.Barrier_arrive { epoch; _ } -> (
          match Hashtbl.find_opt arrivals epoch with
          | Some l -> l := (node, ev.Trace.time) :: !l
          | None -> Hashtbl.replace arrivals epoch (ref [ (node, ev.Trace.time) ]))
      | _ -> ());
  let finalize : 'a 'k. ('a -> 'k) -> 'a list ref array -> 'a array array =
   fun sort_key arr ->
    Array.map
      (fun cell ->
        let a = Array.of_list !cell in
        Array.sort (fun x y -> compare (sort_key x) (sort_key y)) a;
        a)
      arr
  in
  {
    dg_spans = finalize (fun sp -> (sp.sp_e, sp.sp_b)) !spans;
    dg_recvs = finalize (fun rv -> rv.rv_t) !recvs;
    dg_home = home;
    dg_arrivals = arrivals;
    dg_last_time = !last_time;
    dg_last_node = !last_node;
  }

(* ------------------------------------------------------------------ *)
(* Backward walk                                                      *)

(* Last span of [node] with index < [bound] and end <= t (spans are sorted
   by end time). The bound makes same-node progress strict: a zero-length
   span ending exactly at [t] cannot be taken twice. *)
let find_span (dg : digest) node t bound =
  if node >= Array.length dg.dg_spans then None
  else begin
    let spans = dg.dg_spans.(node) in
    let hi = min bound (Array.length spans) in
    (* binary search: largest i < hi with spans.(i).sp_e <= t *)
    let lo = ref 0 and n = ref hi in
    while !lo < !n do
      let mid = (!lo + !n) / 2 in
      if spans.(mid).sp_e <= t then lo := mid + 1 else n := mid
    done;
    if !lo = 0 then None else Some (!lo - 1, spans.(!lo - 1))
  end

(* Latest matched receive on [node] inside the span window: the message
   whose arrival completed the wait. *)
let find_recv (dg : digest) node (sp : span) =
  if node >= Array.length dg.dg_recvs then None
  else begin
    let recvs = dg.dg_recvs.(node) in
    (* binary search: largest i with recvs.(i).rv_t <= sp_e *)
    let lo = ref 0 and n = ref (Array.length recvs) in
    while !lo < !n do
      let mid = (!lo + !n) / 2 in
      if recvs.(mid).rv_t <= sp.sp_e then lo := mid + 1 else n := mid
    done;
    if !lo = 0 then None
    else
      let rv = recvs.(!lo - 1) in
      if rv.rv_t >= sp.sp_b then Some rv else None
  end

let top_of_table ~top tbl =
  Hashtbl.fold (fun id (w, c) acc -> { rb_id = id; rb_wait = w; rb_count = c } :: acc) tbl []
  |> List.sort (fun a b ->
         match compare b.rb_wait a.rb_wait with 0 -> compare a.rb_id b.rb_id | c -> c)
  |> List.filteri (fun i _ -> i < top)

let analyze ?(top = 5) ?finish ?end_node sink =
  let dg = digest sink in
  let finish = match finish with Some f -> f | None -> dg.dg_last_time in
  let end_node = match end_node with Some n -> n | None -> dg.dg_last_node in
  let local = ref 0. in
  let data = ref 0. and lock = ref 0. and barrier = ref 0. and gc = ref 0. in
  let hops = ref 0 and segments = ref 0 in
  let pages : (int, float * int) Hashtbl.t = Hashtbl.create 16 in
  let locks : (int, float * int) Hashtbl.t = Hashtbl.create 16 in
  let blame tbl id w =
    let tw, c = match Hashtbl.find_opt tbl id with Some x -> x | None -> (0., 0) in
    Hashtbl.replace tbl id (tw +. w, c + 1)
  in
  let attribute (sp : span) w =
    (match sp.sp_bucket with
    | Trace.Wb_data ->
        data := !data +. w;
        blame pages sp.sp_res w
    | Trace.Wb_lock ->
        lock := !lock +. w;
        blame locks sp.sp_res w
    | Trace.Wb_barrier -> barrier := !barrier +. w
    | Trace.Wb_gc -> gc := !gc +. w
    | Trace.Wb_home -> assert false (* home spans never enter the walk *));
    incr segments
  in
  let full_bound node =
    if node < Array.length dg.dg_spans then Array.length dg.dg_spans.(node) else 0
  in
  (* The walk is bounded: same-node steps strictly decrease the span index
     bound, message jumps strictly decrease time (positive latency). *)
  let rec walk node t bound =
    if t <= 0. then ()
    else
      match find_span dg node t bound with
      | None -> local := !local +. t
      | Some (i, sp) ->
          local := !local +. (t -. sp.sp_e);
          incr segments;
          (match find_recv dg node sp with
          | Some rv when rv.rv_send_t < sp.sp_e ->
              (* The wait closed when this message arrived: on-path wait
                 reaches back to the matched send; anything between the
                 send and the wait's begin was this node still running. *)
              let cut = Float.max rv.rv_send_t sp.sp_b in
              attribute sp (sp.sp_e -. cut);
              if rv.rv_send_t < sp.sp_b then local := !local +. (sp.sp_b -. rv.rv_send_t);
              incr hops;
              walk rv.rv_src rv.rv_send_t (full_bound rv.rv_src)
          | _ ->
              (* Wait resolved locally (free reacquire, local GC, or the
                 dependency predates the sink's horizon). *)
              attribute sp (sp.sp_e -. sp.sp_b);
              walk node sp.sp_b i)
  in
  walk end_node finish (full_bound end_node);
  let epochs =
    Hashtbl.fold (fun e l acc -> (e, !l) :: acc) dg.dg_arrivals []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (epoch, arr) ->
           let first = List.fold_left (fun m (_, t) -> Float.min m t) infinity arr in
           let straggler, last =
             List.fold_left
               (fun ((_, mt) as best) ((_, t) as cand) -> if t > mt then cand else best)
               (-1, neg_infinity) arr
           in
           { es_epoch = epoch; es_straggler = straggler; es_spread = last -. first; es_last = last })
  in
  {
    cp_finish = finish;
    cp_end_node = end_node;
    cp_local = !local;
    cp_data = !data;
    cp_lock = !lock;
    cp_barrier = !barrier;
    cp_gc = !gc;
    cp_hops = !hops;
    cp_segments = !segments;
    cp_top_pages = top_of_table ~top pages;
    cp_top_locks = top_of_table ~top locks;
    cp_home_pages = top_of_table ~top dg.dg_home;
    cp_epochs = epochs;
  }

(* ------------------------------------------------------------------ *)
(* Serialization                                                      *)

(* The blame buckets, in the order the JSON and the table give them. *)
let buckets =
  [
    ("local", fun cp -> cp.cp_local);
    ("data", fun cp -> cp.cp_data);
    ("lock", fun cp -> cp.cp_lock);
    ("barrier", fun cp -> cp.cp_barrier);
    ("gc", fun cp -> cp.cp_gc);
  ]

let schema =
  let open Schema in
  let blame key =
    list
      (obj
         [
           field key int (fun rb -> rb.rb_id);
           field "wait_us" num (fun rb -> rb.rb_wait);
           field "waits" int (fun rb -> rb.rb_count);
         ])
  in
  [
    field "finish_us" num (fun cp -> cp.cp_finish);
    field "end_node" int (fun cp -> cp.cp_end_node);
    field "hops" int (fun cp -> cp.cp_hops);
    field "segments" int (fun cp -> cp.cp_segments);
    field "buckets" (obj (List.map (fun (name, get) -> field name num get) buckets)) Fun.id;
    field "top_pages" (blame "page") (fun cp -> cp.cp_top_pages);
    field "top_locks" (blame "lock") (fun cp -> cp.cp_top_locks);
    field "home_pages" (blame "page") (fun cp -> cp.cp_home_pages);
    field "epochs"
      (list
         (obj
            [
              field "epoch" int (fun es -> es.es_epoch);
              field "straggler" int (fun es -> es.es_straggler);
              field "spread_us" num (fun es -> es.es_spread);
              field "last_arrive_us" num (fun es -> es.es_last);
            ]))
      (fun cp -> cp.cp_epochs);
  ]

let to_json = Schema.encode schema

let render cp =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.bprintf buf fmt in
  let pct x = if cp.cp_finish > 0. then 100. *. x /. cp.cp_finish else 0. in
  let table title line rows =
    if rows <> [] then begin
      add "%s" title;
      List.iter line rows
    end
  in
  add "critical path: %.0f us ending on node %d (%d segments, %d hops)\n" cp.cp_finish
    cp.cp_end_node cp.cp_segments cp.cp_hops;
  add "  blame          us        %%\n";
  List.iter (fun (name, get) -> add "  %-9s %10.0f   %5.1f%%\n" name (get cp) (pct (get cp)))
    buckets;
  let waits kind rb =
    add "    %s %-6d %10.0f us  (%d waits)\n" kind rb.rb_id rb.rb_wait rb.rb_count
  in
  table "  top pages by on-path fetch wait:\n" (waits "page") cp.cp_top_pages;
  table "  top locks by on-path wait (count = handoff-chain length):\n"
    (fun rb -> add "    lock %-6d %10.0f us  (chain %d)\n" rb.rb_id rb.rb_wait rb.rb_count)
    cp.cp_top_locks;
  table "  home waits (aggregate, nested in lock/barrier):\n" (waits "page") cp.cp_home_pages;
  table "  barrier slack per epoch:\n"
    (fun es ->
      add "    epoch %-3d straggler node %-3d spread %10.0f us\n" es.es_epoch es.es_straggler
        es.es_spread)
    cp.cp_epochs;
  Buffer.contents buf
