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

let kind_name = function
  | Page_fetch _ -> "page_fetch"
  | Page_fetch_pending _ -> "page_fetch_pending"
  | Batch_fetch _ -> "batch_fetch"
  | Full_page_fetch _ -> "full_page_fetch"
  | Diff_request _ -> "diff_request"
  | Diff_create _ -> "diff_create"
  | Diff_apply _ -> "diff_apply"
  | Diff_flush _ -> "diff_flush"
  | Au_stamp _ -> "au_stamp"
  | Eager_update _ -> "eager_update"
  | Write_notice _ -> "write_notice"
  | Interval_end _ -> "interval_end"
  | Lock_acquire _ -> "lock_acquire"
  | Lock_grant _ -> "lock_grant"
  | Lock_queued _ -> "lock_queued"
  | Home_wait _ -> "home_wait"
  | Barrier_arrive _ -> "barrier_arrive"
  | Barrier_release _ -> "barrier_release"
  | Home_migration _ -> "home_migration"
  | Gc_start _ -> "gc_start"
  | Gc_done -> "gc_done"
  | Msg_send _ -> "msg_send"
  | Msg_recv _ -> "msg_recv"
  | Msg_drop _ -> "msg_drop"
  | Msg_retransmit _ -> "msg_retransmit"
  | Msg_ack _ -> "msg_ack"
  | Msg_duplicate_dropped _ -> "msg_duplicate_dropped"
  | Watchdog_stall _ -> "watchdog_stall"
  | Wait_begin _ -> "wait_begin"
  | Wait_end _ -> "wait_end"
  | Mem_sample _ -> "mem_sample"
  | Diff_reply _ -> "diff_reply"
  | Node_kill _ -> "node_kill"
  | Msg_peer_dead _ -> "msg_peer_dead"
  | Failover _ -> "failover"
  | Repl_update _ -> "repl_update"
  | Repl_inval _ -> "repl_inval"
  | Suspect _ -> "suspect"
  | Refute _ -> "refute"
  | Depose _ -> "depose"
  | Rejoin _ -> "rejoin"
  | Fenced_fetch _ -> "fenced_fetch"

let kind_fields = function
  | Page_fetch { page; home } -> [ ("page", Json.Int page); ("home", Json.Int home) ]
  | Page_fetch_pending { page } -> [ ("page", Json.Int page) ]
  | Batch_fetch { page; home; pages } ->
      [ ("page", Json.Int page); ("home", Json.Int home); ("pages", Json.Int pages) ]
  | Full_page_fetch { page; source } -> [ ("page", Json.Int page); ("source", Json.Int source) ]
  | Diff_request { page; writer; intervals } ->
      [ ("page", Json.Int page); ("writer", Json.Int writer); ("intervals", Json.Int intervals) ]
  | Diff_create { page; words; bytes } ->
      [ ("page", Json.Int page); ("words", Json.Int words); ("bytes", Json.Int bytes) ]
  | Diff_apply { page; words; bytes } ->
      [ ("page", Json.Int page); ("words", Json.Int words); ("bytes", Json.Int bytes) ]
  | Diff_flush { page; writer; index; bytes } ->
      [
        ("page", Json.Int page);
        ("writer", Json.Int writer);
        ("index", Json.Int index);
        ("bytes", Json.Int bytes);
      ]
  | Au_stamp { page; writer; index } ->
      [ ("page", Json.Int page); ("writer", Json.Int writer); ("index", Json.Int index) ]
  | Eager_update { page; writer; bytes } ->
      [ ("page", Json.Int page); ("writer", Json.Int writer); ("bytes", Json.Int bytes) ]
  | Write_notice { writer; index; pages } ->
      [ ("writer", Json.Int writer); ("index", Json.Int index); ("pages", Json.Int pages) ]
  | Interval_end { index; pages } ->
      [ ("index", Json.Int index); ("pages", Json.List (List.map (fun p -> Json.Int p) pages)) ]
  | Lock_acquire { lock; remote } -> [ ("lock", Json.Int lock); ("remote", Json.Bool remote) ]
  | Lock_grant { lock; dst; intervals } ->
      [ ("lock", Json.Int lock); ("dst", Json.Int dst); ("intervals", Json.Int intervals) ]
  | Lock_queued { lock; requester } ->
      [ ("lock", Json.Int lock); ("requester", Json.Int requester) ]
  | Home_wait { page } -> [ ("page", Json.Int page) ]
  | Barrier_arrive { epoch; intervals } ->
      [ ("epoch", Json.Int epoch); ("intervals", Json.Int intervals) ]
  | Barrier_release { epoch; gc } -> [ ("epoch", Json.Int epoch); ("gc", Json.Bool gc) ]
  | Home_migration { page; dst } -> [ ("page", Json.Int page); ("dst", Json.Int dst) ]
  | Gc_start { mem_bytes } -> [ ("mem_bytes", Json.Int mem_bytes) ]
  | Gc_done -> []
  | Msg_send { dst; bytes; update } ->
      [ ("dst", Json.Int dst); ("bytes", Json.Int bytes); ("update", Json.Int update) ]
  | Msg_recv { src; bytes; update } ->
      [ ("src", Json.Int src); ("bytes", Json.Int bytes); ("update", Json.Int update) ]
  | Msg_drop { dst; seq; bytes; ack } ->
      [
        ("dst", Json.Int dst);
        ("seq", Json.Int seq);
        ("bytes", Json.Int bytes);
        ("ack", Json.Bool ack);
      ]
  | Msg_retransmit { dst; seq; retries } ->
      [ ("dst", Json.Int dst); ("seq", Json.Int seq); ("retries", Json.Int retries) ]
  | Msg_ack { dst; upto } -> [ ("dst", Json.Int dst); ("upto", Json.Int upto) ]
  | Msg_duplicate_dropped { src; seq } -> [ ("src", Json.Int src); ("seq", Json.Int seq) ]
  | Watchdog_stall { blocked; inflight } ->
      [ ("blocked", Json.Int blocked); ("inflight", Json.Int inflight) ]
  | Wait_begin { span; bucket; resource } | Wait_end { span; bucket; resource } ->
      [
        ("span", Json.Int span);
        ("bucket", Json.String (bucket_name bucket));
        ("resource", Json.Int resource);
      ]
  | Mem_sample { bytes } -> [ ("bytes", Json.Int bytes) ]
  | Diff_reply { page; dst; bytes } ->
      [ ("page", Json.Int page); ("dst", Json.Int dst); ("bytes", Json.Int bytes) ]
  | Node_kill { node } -> [ ("node", Json.Int node) ]
  | Msg_peer_dead { peer; seq; bytes } ->
      [ ("peer", Json.Int peer); ("seq", Json.Int seq); ("bytes", Json.Int bytes) ]
  | Failover { page; from_; to_ } ->
      [ ("page", Json.Int page); ("from", Json.Int from_); ("to", Json.Int to_) ]
  | Repl_update { page; dst; bytes } ->
      [ ("page", Json.Int page); ("dst", Json.Int dst); ("bytes", Json.Int bytes) ]
  | Repl_inval { page; dst } -> [ ("page", Json.Int page); ("dst", Json.Int dst) ]
  | Suspect { peer } -> [ ("peer", Json.Int peer) ]
  | Refute { peer } -> [ ("peer", Json.Int peer) ]
  (* "victim", not "node": the envelope already has a "node" field (the
     emitting node — a deposing voter / the rejoiner itself). *)
  | Depose { node } -> [ ("victim", Json.Int node) ]
  | Rejoin { node } -> [ ("victim", Json.Int node) ]
  | Fenced_fetch { page; requester } ->
      [ ("page", Json.Int page); ("requester", Json.Int requester) ]

let to_json ev =
  Json.Obj
    (("ts", Json.Float ev.time)
    :: ("node", Json.Int ev.node)
    :: ("ev", Json.String (kind_name ev.kind))
    :: kind_fields ev.kind)

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

let length s = s.len

let capacity s = s.capacity

let dropped s = s.n_dropped

let dropped_by_kind s =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) s.drop_kinds []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
