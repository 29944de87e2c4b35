(* Which Figure-3 wait bucket a span covers. [Wb_home] spans annotate a
   home-wait nested inside an outer lock/barrier wait (the node stays
   blocked under the outer bucket while its own master copies catch up). *)
type wait_bucket = Wb_data | Wb_lock | Wb_barrier | Wb_gc | Wb_home

let bucket_name = function
  | Wb_data -> "data"
  | Wb_lock -> "lock"
  | Wb_barrier -> "barrier"
  | Wb_gc -> "gc"
  | Wb_home -> "home"

type kind =
  | Page_fetch of { page : int; home : int }
  | Page_fetch_pending of { page : int }
  | Batch_fetch of { page : int; home : int; pages : int }
  | Full_page_fetch of { page : int; source : int }
  | Diff_request of { page : int; writer : int; intervals : int }
  | Diff_create of { page : int; words : int; bytes : int }
  | Diff_apply of { page : int; words : int; bytes : int }
  | Diff_flush of { page : int; writer : int; index : int; bytes : int }
  | Au_stamp of { page : int; writer : int; index : int }
  | Eager_update of { page : int; writer : int; bytes : int }
  | Write_notice of { writer : int; index : int; pages : int }
  | Interval_end of { index : int; pages : int list }
  | Lock_acquire of { lock : int; remote : bool }
  | Lock_grant of { lock : int; dst : int; intervals : int }
  | Lock_queued of { lock : int; requester : int }
  | Home_wait of { page : int }
  | Barrier_arrive of { epoch : int; intervals : int }
  | Barrier_release of { epoch : int; gc : bool }
  | Home_migration of { page : int; dst : int }
  | Gc_start of { mem_bytes : int }
  | Gc_done
  | Msg_send of { dst : int; bytes : int; update : int }
  | Msg_recv of { src : int; bytes : int; update : int }
  | Msg_drop of { dst : int; seq : int; bytes : int; ack : bool }
  | Msg_retransmit of { dst : int; seq : int; retries : int }
  | Msg_ack of { dst : int; upto : int }
  | Msg_duplicate_dropped of { src : int; seq : int }
  | Watchdog_stall of { blocked : int; inflight : int }
  | Wait_begin of { span : int; bucket : wait_bucket; resource : int }
  | Wait_end of { span : int; bucket : wait_bucket; resource : int }
  | Mem_sample of { bytes : int }
  | Diff_reply of { page : int; dst : int; bytes : int }
  | Node_kill of { node : int }
  | Msg_peer_dead of { peer : int; seq : int; bytes : int }
  | Failover of { page : int; from_ : int; to_ : int }
  | Repl_update of { page : int; dst : int; bytes : int }
  | Repl_inval of { page : int; dst : int }
  | Suspect of { peer : int }
  | Refute of { peer : int }
  | Depose of { node : int }
  | Rejoin of { node : int }
  | Fenced_fetch of { page : int; requester : int }

type event = { time : float; node : int; kind : kind }

(* One JSON field per int, in the order given. *)
let ints fields = List.map (fun (k, v) -> (k, Json.Int v)) fields

(* The fields a wait span's two ends share. *)
let wait_fields span bucket resource =
  [
    ("span", Json.Int span);
    ("bucket", Json.String (bucket_name bucket));
    ("resource", Json.Int resource);
  ]

let describe = function
  | Page_fetch { page; home } -> ("page_fetch", ints [ ("page", page); ("home", home) ])
  | Page_fetch_pending { page } -> ("page_fetch_pending", ints [ ("page", page) ])
  | Batch_fetch { page; home; pages } ->
      ("batch_fetch", ints [ ("page", page); ("home", home); ("pages", pages) ])
  | Full_page_fetch { page; source } ->
      ("full_page_fetch", ints [ ("page", page); ("source", source) ])
  | Diff_request { page; writer; intervals } ->
      ("diff_request", ints [ ("page", page); ("writer", writer); ("intervals", intervals) ])
  | Diff_create { page; words; bytes } ->
      ("diff_create", ints [ ("page", page); ("words", words); ("bytes", bytes) ])
  | Diff_apply { page; words; bytes } ->
      ("diff_apply", ints [ ("page", page); ("words", words); ("bytes", bytes) ])
  | Diff_flush { page; writer; index; bytes } ->
      ( "diff_flush",
        ints [ ("page", page); ("writer", writer); ("index", index); ("bytes", bytes) ] )
  | Au_stamp { page; writer; index } ->
      ("au_stamp", ints [ ("page", page); ("writer", writer); ("index", index) ])
  | Eager_update { page; writer; bytes } ->
      ("eager_update", ints [ ("page", page); ("writer", writer); ("bytes", bytes) ])
  | Write_notice { writer; index; pages } ->
      ("write_notice", ints [ ("writer", writer); ("index", index); ("pages", pages) ])
  | Interval_end { index; pages } ->
      ( "interval_end",
        [ ("index", Json.Int index); ("pages", Json.List (List.map (fun p -> Json.Int p) pages)) ]
      )
  | Lock_acquire { lock; remote } ->
      ("lock_acquire", [ ("lock", Json.Int lock); ("remote", Json.Bool remote) ])
  | Lock_grant { lock; dst; intervals } ->
      ("lock_grant", ints [ ("lock", lock); ("dst", dst); ("intervals", intervals) ])
  | Lock_queued { lock; requester } ->
      ("lock_queued", ints [ ("lock", lock); ("requester", requester) ])
  | Home_wait { page } -> ("home_wait", ints [ ("page", page) ])
  | Barrier_arrive { epoch; intervals } ->
      ("barrier_arrive", ints [ ("epoch", epoch); ("intervals", intervals) ])
  | Barrier_release { epoch; gc } ->
      ("barrier_release", [ ("epoch", Json.Int epoch); ("gc", Json.Bool gc) ])
  | Home_migration { page; dst } -> ("home_migration", ints [ ("page", page); ("dst", dst) ])
  | Gc_start { mem_bytes } -> ("gc_start", ints [ ("mem_bytes", mem_bytes) ])
  | Gc_done -> ("gc_done", [])
  | Msg_send { dst; bytes; update } ->
      ("msg_send", ints [ ("dst", dst); ("bytes", bytes); ("update", update) ])
  | Msg_recv { src; bytes; update } ->
      ("msg_recv", ints [ ("src", src); ("bytes", bytes); ("update", update) ])
  | Msg_drop { dst; seq; bytes; ack } ->
      ( "msg_drop",
        ints [ ("dst", dst); ("seq", seq); ("bytes", bytes) ] @ [ ("ack", Json.Bool ack) ] )
  | Msg_retransmit { dst; seq; retries } ->
      ("msg_retransmit", ints [ ("dst", dst); ("seq", seq); ("retries", retries) ])
  | Msg_ack { dst; upto } -> ("msg_ack", ints [ ("dst", dst); ("upto", upto) ])
  | Msg_duplicate_dropped { src; seq } ->
      ("msg_duplicate_dropped", ints [ ("src", src); ("seq", seq) ])
  | Watchdog_stall { blocked; inflight } ->
      ("watchdog_stall", ints [ ("blocked", blocked); ("inflight", inflight) ])
  | Wait_begin { span; bucket; resource } -> ("wait_begin", wait_fields span bucket resource)
  | Wait_end { span; bucket; resource } -> ("wait_end", wait_fields span bucket resource)
  | Mem_sample { bytes } -> ("mem_sample", ints [ ("bytes", bytes) ])
  | Diff_reply { page; dst; bytes } ->
      ("diff_reply", ints [ ("page", page); ("dst", dst); ("bytes", bytes) ])
  | Node_kill { node } -> ("node_kill", ints [ ("node", node) ])
  | Msg_peer_dead { peer; seq; bytes } ->
      ("msg_peer_dead", ints [ ("peer", peer); ("seq", seq); ("bytes", bytes) ])
  | Failover { page; from_; to_ } ->
      ("failover", ints [ ("page", page); ("from", from_); ("to", to_) ])
  | Repl_update { page; dst; bytes } ->
      ("repl_update", ints [ ("page", page); ("dst", dst); ("bytes", bytes) ])
  | Repl_inval { page; dst } -> ("repl_inval", ints [ ("page", page); ("dst", dst) ])
  | Suspect { peer } -> ("suspect", ints [ ("peer", peer) ])
  | Refute { peer } -> ("refute", ints [ ("peer", peer) ])
  (* "victim", not "node": the envelope already has a "node" field (the
     emitting node — a deposing voter / the rejoiner itself). *)
  | Depose { node } -> ("depose", ints [ ("victim", node) ])
  | Rejoin { node } -> ("rejoin", ints [ ("victim", node) ])
  | Fenced_fetch { page; requester } ->
      ("fenced_fetch", ints [ ("page", page); ("requester", requester) ])

let kind_name k = fst (describe k)

let to_json ev =
  let name, fields = describe ev.kind in
  Json.Obj
    (("ts", Json.Float ev.time) :: ("node", Json.Int ev.node) :: ("ev", Json.String name) :: fields)

(* Exact reproductions of the strings the pre-typed tracer emitted at each
   site; [svm_run -t] prints them from a sink tap, so this mapping must stay
   verbatim. *)
let render = function
  | Page_fetch { page; home } ->
      Some (Printf.sprintf "page fault: fetch page %d from home %d" page home)
  | Page_fetch_pending { page } ->
      Some (Printf.sprintf "fetch of page %d pending (flush behind)" page)
  | Batch_fetch { page; home; pages } ->
      Some (Printf.sprintf "batched fetch: %d pages from %d at home %d" pages page home)
  | Full_page_fetch { page; source } ->
      Some (Printf.sprintf "full-page fetch: page %d from node %d" page source)
  | Diff_request { page; writer; intervals } ->
      Some (Printf.sprintf "diff request: page %d from writer %d (%d intervals)" page writer intervals)
  | Diff_flush { page; writer; index; _ } ->
      Some
        (Printf.sprintf "applied flush diff for page %d from node %d (interval %d)" page writer
           index)
  | Au_stamp { page; writer; index } ->
      Some
        (Printf.sprintf "AU flush stamp for page %d from node %d (interval %d)" page writer index)
  | Eager_update { page; writer; _ } ->
      Some (Printf.sprintf "applied eager update for page %d from node %d" page writer)
  | Interval_end { index; pages } ->
      Some
        (Printf.sprintf "interval %d ends: pages [%s]" index
           (String.concat ";" (List.map string_of_int pages)))
  | Lock_acquire { lock; remote } ->
      if remote then Some (Printf.sprintf "remote acquire of lock %d" lock) else None
  | Lock_grant { lock; dst; intervals } ->
      Some (Printf.sprintf "grant lock %d to node %d (%d interval records)" lock dst intervals)
  | Lock_queued { lock; requester } ->
      Some (Printf.sprintf "lock %d busy; node %d queued" lock requester)
  | Home_wait { page } -> Some (Printf.sprintf "home-wait: page %d flush behind" page)
  | Barrier_arrive { intervals; _ } ->
      Some (Printf.sprintf "enters barrier (%d own interval records)" intervals)
  | Barrier_release { epoch; gc } ->
      Some (Printf.sprintf "barrier %d completes%s" epoch (if gc then " (gc)" else ""))
  | Home_migration { page; dst } ->
      Some (Printf.sprintf "migrating home of page %d to node %d" page dst)
  | Gc_start { mem_bytes } ->
      Some (Printf.sprintf "gc: start (protocol memory %d bytes)" mem_bytes)
  | Gc_done -> Some "gc: discarded diffs and interval records"
  (* Chaos/transport kinds postdate the legacy tracer; their lines are new,
     not reproductions, so they may say whatever reads best. *)
  | Msg_drop { dst; seq; bytes; ack } ->
      Some
        (Printf.sprintf "chaos: network dropped %s to node %d (seq %d, %d bytes)"
           (if ack then "ack" else "message")
           dst seq bytes)
  | Msg_retransmit { dst; seq; retries } ->
      Some (Printf.sprintf "transport: retransmit seq %d to node %d (attempt %d)" seq dst retries)
  | Msg_ack { dst; upto } -> Some (Printf.sprintf "transport: ack up to seq %d to node %d" upto dst)
  | Msg_duplicate_dropped { src; seq } ->
      Some (Printf.sprintf "transport: dropped duplicate seq %d from node %d" seq src)
  | Watchdog_stall { blocked; inflight } ->
      Some
        (Printf.sprintf "watchdog: no progress (%d blocked nodes, %d in-flight packets)" blocked
           inflight)
  (* Replication/failover kinds are chaos-era too: free-form lines. *)
  | Node_kill { node } -> Some (Printf.sprintf "chaos: node %d killed (links silenced)" node)
  | Msg_peer_dead { peer; seq; bytes } ->
      Some (Printf.sprintf "transport: peer %d dead, abandoned seq %d (%d bytes)" peer seq bytes)
  | Failover { page; from_; to_ } ->
      Some (Printf.sprintf "failover: page %d re-homed from dead node %d to node %d" page from_ to_)
  | Repl_update { page; dst; bytes } ->
      Some (Printf.sprintf "replication: update for page %d to backup %d (%d bytes)" page dst bytes)
  | Repl_inval { page; dst } ->
      Some (Printf.sprintf "replication: invalidate page %d at backup %d" page dst)
  (* Heartbeat-detector kinds (newer still): free-form lines. *)
  | Suspect { peer } -> Some (Printf.sprintf "detector: suspecting node %d (silent past timeout)" peer)
  | Refute { peer } -> Some (Printf.sprintf "detector: heard node %d again, suspicion retracted" peer)
  | Depose { node } -> Some (Printf.sprintf "detector: quorum deposed node %d" node)
  | Rejoin { node } -> Some (Printf.sprintf "detector: node %d rejoined as fresh replica" node)
  | Fenced_fetch { page; requester } ->
      Some
        (Printf.sprintf "fence: refused stale-authority serve of page %d to node %d" page
           requester)
  (* Causal-layer kinds (spans, counter samples, reply correlation) are
     opt-in and machine-oriented; they have no legacy line either. *)
  | Diff_create _ | Diff_apply _ | Write_notice _ | Msg_send _ | Msg_recv _ | Wait_begin _
  | Wait_end _ | Mem_sample _ | Diff_reply _ ->
      None

let legacy_line ev = Option.map (Printf.sprintf "[node %d] %s" ev.node) (render ev.kind)

(* ------------------------------------------------------------------ *)
(* Bounded sink: a growing array capped at [capacity]; overflow is      *)
(* counted, not stored, so tracing a long run cannot exhaust memory.    *)

type sink = {
  mutable buf : event array;
  mutable len : int;
  capacity : int;
  mutable n_dropped : int;
  drop_kinds : (string, int ref) Hashtbl.t;  (* kind_name -> drops of that kind *)
  tap : (event -> unit) option;  (* sees every event, stored or not *)
}

let dummy = { time = 0.; node = 0; kind = Gc_done }

let default_capacity = 1_000_000

let create_sink ?(capacity = default_capacity) ?tap () =
  if capacity < 0 then invalid_arg "Trace.create_sink: capacity must be >= 0";
  {
    buf = Array.make (min capacity 1024) dummy;
    len = 0;
    capacity;
    n_dropped = 0;
    drop_kinds = Hashtbl.create 8;
    tap;
  }

let count_drop s name n =
  match Hashtbl.find_opt s.drop_kinds name with
  | Some r -> r := !r + n
  | None -> Hashtbl.add s.drop_kinds name (ref n)

let store s ev =
  if s.len >= s.capacity then begin
    s.n_dropped <- s.n_dropped + 1;
    count_drop s (kind_name ev.kind) 1
  end
  else begin
    if s.len >= Array.length s.buf then begin
      let buf' = Array.make (min s.capacity (2 * Array.length s.buf)) dummy in
      Array.blit s.buf 0 buf' 0 s.len;
      s.buf <- buf'
    end;
    s.buf.(s.len) <- ev;
    s.len <- s.len + 1
  end

let emit s ev =
  (match s.tap with Some f -> f ev | None -> ());
  store s ev

(* Append [src]'s stored events (and its overflow count) to [dst], without
   calling [dst]'s tap: the events were emitted into [src], not [dst]. Replaying
   per-cell sinks into a shared one in deterministic cell order makes a
   parallel sweep's merged trace byte-identical to a sequential run's: the
   shared sink stores the same first-[capacity] events and counts the same
   total drops, because drops commute — whatever [src] dropped past its own
   cap plus whatever [dst] drops here sums to exactly what a single shared
   sink would have dropped. *)
let absorb dst src =
  for i = 0 to src.len - 1 do
    store dst src.buf.(i)
  done;
  dst.n_dropped <- dst.n_dropped + src.n_dropped;
  Hashtbl.iter (fun name r -> count_drop dst name !r) src.drop_kinds

let events s = Array.to_list (Array.sub s.buf 0 s.len)

let iter s f =
  for i = 0 to s.len - 1 do
    f s.buf.(i)
  done

(* The one reading of a trace's causal links, shared by the Chrome exporter
   and the critical-path walk. A span closes by its id; every other pair is
   FIFO per key, as the simulated network and each request/reply chain are.
   Under fault injection a retransmitted copy can shift a FIFO pairing by
   one, so links on chaos runs are an approximation. *)
let iter_linked s f =
  let fifo tbl key =
    match Hashtbl.find_opt tbl key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace tbl key q;
        q
  in
  let spans = Hashtbl.create 64 and msgs = Hashtbl.create 64 in
  let locks = Hashtbl.create 16 and diffs = Hashtbl.create 16 in
  (* [ev] opens a pair; it closes none. *)
  let enqueue q ev =
    Queue.push ev q;
    None
  in
  iter s (fun ev ->
      f ev
        (match ev.kind with
        | Wait_begin { span; _ } ->
            Hashtbl.replace spans span ev;
            None
        | Wait_end { span; _ } ->
            let b = Hashtbl.find_opt spans span in
            Hashtbl.remove spans span;
            b
        | Msg_send { dst; _ } -> enqueue (fifo msgs (ev.node, dst)) ev
        | Msg_recv { src; _ } -> Queue.take_opt (fifo msgs (src, ev.node))
        | Lock_acquire { lock; remote = true } -> enqueue (fifo locks (lock, ev.node)) ev
        | Lock_grant { lock; dst; _ } -> Queue.take_opt (fifo locks (lock, dst))
        | Diff_request { page; writer; _ } -> enqueue (fifo diffs (page, writer, ev.node)) ev
        | Diff_reply { page; dst; _ } -> Queue.take_opt (fifo diffs (page, ev.node, dst))
        | _ -> None))

let length s = s.len

let capacity s = s.capacity

let dropped s = s.n_dropped

let dropped_by_kind s =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) s.drop_kinds []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
