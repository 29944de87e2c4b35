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
let wait_fields span bucket resource () =
  [
    ("span", Json.Int span);
    ("bucket", Json.String (bucket_name bucket));
    ("resource", Json.Int resource);
  ]

(* A kind that prints a -t line, and one that does not. *)
let line name template fields = (name, Some template, fields)

let quiet name fields = (name, None, fields)

(* The one description of each kind: its tag, the template of its -t line,
   and its fields, built only when asked for (a dropped event needs only
   the tag). The templates reproduce the pre-typed tracer's strings
   verbatim; kinds that postdate it (chaos, transport, replication,
   detector) have lines of their own, and the causal-layer kinds none. *)
let describe = function
  | Page_fetch { page; home } ->
      line "page_fetch" "page fault: fetch page {page} from home {home}" (fun () ->
          ints [ ("page", page); ("home", home) ])
  | Page_fetch_pending { page } ->
      line "page_fetch_pending" "fetch of page {page} pending (flush behind)" (fun () ->
          ints [ ("page", page) ])
  | Batch_fetch { page; home; pages } ->
      line "batch_fetch" "batched fetch: {pages} pages from {page} at home {home}" (fun () ->
          ints [ ("page", page); ("home", home); ("pages", pages) ])
  | Full_page_fetch { page; source } ->
      line "full_page_fetch" "full-page fetch: page {page} from node {source}" (fun () ->
          ints [ ("page", page); ("source", source) ])
  | Diff_request { page; writer; intervals } ->
      line "diff_request" "diff request: page {page} from writer {writer} ({intervals} intervals)"
        (fun () -> ints [ ("page", page); ("writer", writer); ("intervals", intervals) ])
  | Diff_create { page; words; bytes } ->
      quiet "diff_create" (fun () -> ints [ ("page", page); ("words", words); ("bytes", bytes) ])
  | Diff_apply { page; words; bytes } ->
      quiet "diff_apply" (fun () -> ints [ ("page", page); ("words", words); ("bytes", bytes) ])
  | Diff_flush { page; writer; index; bytes } ->
      line "diff_flush" "applied flush diff for page {page} from node {writer} (interval {index})"
        (fun () -> ints [ ("page", page); ("writer", writer); ("index", index); ("bytes", bytes) ])
  | Au_stamp { page; writer; index } ->
      line "au_stamp" "AU flush stamp for page {page} from node {writer} (interval {index})"
        (fun () -> ints [ ("page", page); ("writer", writer); ("index", index) ])
  | Eager_update { page; writer; bytes } ->
      line "eager_update" "applied eager update for page {page} from node {writer}" (fun () ->
          ints [ ("page", page); ("writer", writer); ("bytes", bytes) ])
  | Write_notice { writer; index; pages } ->
      quiet "write_notice" (fun () ->
          ints [ ("writer", writer); ("index", index); ("pages", pages) ])
  | Interval_end { index; pages } ->
      line "interval_end" "interval {index} ends: pages [{pages}]" (fun () ->
          [ ("index", Json.Int index); ("pages", Json.List (List.map (fun p -> Json.Int p) pages))
          ])
  | Lock_acquire { lock; remote } ->
      ( "lock_acquire",
        (if remote then Some "remote acquire of lock {lock}" else None),
        fun () -> [ ("lock", Json.Int lock); ("remote", Json.Bool remote) ] )
  | Lock_grant { lock; dst; intervals } ->
      line "lock_grant" "grant lock {lock} to node {dst} ({intervals} interval records)" (fun () ->
          ints [ ("lock", lock); ("dst", dst); ("intervals", intervals) ])
  | Lock_queued { lock; requester } ->
      line "lock_queued" "lock {lock} busy; node {requester} queued" (fun () ->
          ints [ ("lock", lock); ("requester", requester) ])
  | Home_wait { page } ->
      line "home_wait" "home-wait: page {page} flush behind" (fun () -> ints [ ("page", page) ])
  | Barrier_arrive { epoch; intervals } ->
      line "barrier_arrive" "enters barrier ({intervals} own interval records)" (fun () ->
          ints [ ("epoch", epoch); ("intervals", intervals) ])
  | Barrier_release { epoch; gc } ->
      line "barrier_release"
        (if gc then "barrier {epoch} completes (gc)" else "barrier {epoch} completes")
        (fun () -> [ ("epoch", Json.Int epoch); ("gc", Json.Bool gc) ])
  | Home_migration { page; dst } ->
      line "home_migration" "migrating home of page {page} to node {dst}" (fun () ->
          ints [ ("page", page); ("dst", dst) ])
  | Gc_start { mem_bytes } ->
      line "gc_start" "gc: start (protocol memory {mem_bytes} bytes)" (fun () ->
          ints [ ("mem_bytes", mem_bytes) ])
  | Gc_done -> line "gc_done" "gc: discarded diffs and interval records" (fun () -> [])
  | Msg_send { dst; bytes; update } ->
      quiet "msg_send" (fun () -> ints [ ("dst", dst); ("bytes", bytes); ("update", update) ])
  | Msg_recv { src; bytes; update } ->
      quiet "msg_recv" (fun () -> ints [ ("src", src); ("bytes", bytes); ("update", update) ])
  | Msg_drop { dst; seq; bytes; ack } ->
      line "msg_drop"
        (if ack then "chaos: network dropped ack to node {dst} (seq {seq}, {bytes} bytes)"
         else "chaos: network dropped message to node {dst} (seq {seq}, {bytes} bytes)")
        (fun () ->
          ints [ ("dst", dst); ("seq", seq); ("bytes", bytes) ] @ [ ("ack", Json.Bool ack) ])
  | Msg_retransmit { dst; seq; retries } ->
      line "msg_retransmit" "transport: retransmit seq {seq} to node {dst} (attempt {retries})"
        (fun () -> ints [ ("dst", dst); ("seq", seq); ("retries", retries) ])
  | Msg_ack { dst; upto } ->
      line "msg_ack" "transport: ack up to seq {upto} to node {dst}" (fun () ->
          ints [ ("dst", dst); ("upto", upto) ])
  | Msg_duplicate_dropped { src; seq } ->
      line "msg_duplicate_dropped" "transport: dropped duplicate seq {seq} from node {src}"
        (fun () -> ints [ ("src", src); ("seq", seq) ])
  | Watchdog_stall { blocked; inflight } ->
      line "watchdog_stall"
        "watchdog: no progress ({blocked} blocked nodes, {inflight} in-flight packets)" (fun () ->
          ints [ ("blocked", blocked); ("inflight", inflight) ])
  | Wait_begin { span; bucket; resource } -> quiet "wait_begin" (wait_fields span bucket resource)
  | Wait_end { span; bucket; resource } -> quiet "wait_end" (wait_fields span bucket resource)
  | Mem_sample { bytes } -> quiet "mem_sample" (fun () -> ints [ ("bytes", bytes) ])
  | Diff_reply { page; dst; bytes } ->
      quiet "diff_reply" (fun () -> ints [ ("page", page); ("dst", dst); ("bytes", bytes) ])
  | Node_kill { node } ->
      line "node_kill" "chaos: node {node} killed (links silenced)" (fun () ->
          ints [ ("node", node) ])
  | Msg_peer_dead { peer; seq; bytes } ->
      line "msg_peer_dead" "transport: peer {peer} dead, abandoned seq {seq} ({bytes} bytes)"
        (fun () -> ints [ ("peer", peer); ("seq", seq); ("bytes", bytes) ])
  | Failover { page; from_; to_ } ->
      line "failover" "failover: page {page} re-homed from dead node {from} to node {to}"
        (fun () -> ints [ ("page", page); ("from", from_); ("to", to_) ])
  | Repl_update { page; dst; bytes } ->
      line "repl_update" "replication: update for page {page} to backup {dst} ({bytes} bytes)"
        (fun () -> ints [ ("page", page); ("dst", dst); ("bytes", bytes) ])
  | Repl_inval { page; dst } ->
      line "repl_inval" "replication: invalidate page {page} at backup {dst}" (fun () ->
          ints [ ("page", page); ("dst", dst) ])
  | Suspect { peer } ->
      line "suspect" "detector: suspecting node {peer} (silent past timeout)" (fun () ->
          ints [ ("peer", peer) ])
  | Refute { peer } ->
      line "refute" "detector: heard node {peer} again, suspicion retracted" (fun () ->
          ints [ ("peer", peer) ])
  (* "victim", not "node": the envelope already has a "node" field (the
     emitting node — a deposing voter / the rejoiner itself). *)
  | Depose { node } ->
      line "depose" "detector: quorum deposed node {victim}" (fun () -> ints [ ("victim", node) ])
  | Rejoin { node } ->
      line "rejoin" "detector: node {victim} rejoined as fresh replica" (fun () ->
          ints [ ("victim", node) ])
  | Fenced_fetch { page; requester } ->
      line "fenced_fetch" "fence: refused stale-authority serve of page {page} to node {requester}"
        (fun () -> ints [ ("page", page); ("requester", requester) ])

let kind_name k =
  let name, _, _ = describe k in
  name

let to_json ev =
  let name, _, fields = describe ev.kind in
  Json.Obj
    (("ts", Json.Float ev.time) :: ("node", Json.Int ev.node) :: ("ev", Json.String name)
   :: fields ())

(* A template with each {field} replaced by the field's value; a list of
   ints prints as a;b;c. *)
let fill template fields =
  let rec value = function
    | Json.Int n -> string_of_int n
    | Json.List xs -> String.concat ";" (List.map value xs)
    | j -> Json.to_string j
  in
  let hole i part =
    if i = 0 then part
    else
      let close = String.index part '}' in
      value (List.assoc (String.sub part 0 close) fields)
      ^ String.sub part (close + 1) (String.length part - close - 1)
  in
  String.concat "" (List.mapi hole (String.split_on_char '{' template))

let legacy_line ev =
  let _, template, fields = describe ev.kind in
  Option.map (fun t -> Printf.sprintf "[node %d] %s" ev.node (fill t (fields ()))) template

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
