type format = Jsonl | Chrome

let format_of_string s =
  match String.lowercase_ascii s with
  | "jsonl" -> Some Jsonl
  | "chrome" -> Some Chrome
  | _ -> None

let format_name = function Jsonl -> "jsonl" | Chrome -> "chrome"

let jsonl sink =
  let buf = Buffer.create 4096 in
  Trace.iter sink (fun ev ->
      Json.to_buffer buf (Trace.to_json ev);
      Buffer.add_char buf '\n');
  if Trace.dropped sink > 0 then begin
    Json.to_buffer buf
      (Json.Obj
         [
           ("ev", Json.String "dropped");
           ("count", Json.Int (Trace.dropped sink));
           ( "by_kind",
             Json.Obj
               (List.map (fun (k, n) -> (k, Json.Int n)) (Trace.dropped_by_kind sink)) );
         ]);
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

(* Chrome trace_event JSON: metadata events name the process and one thread
   per node; protocol events become thread-scoped instants ("ph":"i") at
   their simulated microsecond timestamps. On top of that, three derived
   layers Perfetto can actually *analyze*:

   - Wait_begin/Wait_end pairs (causal layer; see Config.trace_spans) fuse
     into complete events ("ph":"X") named after their Figure-3 bucket, so
     waits show as solid slices with durations instead of tick marks.
   - Cross-node causality draws as flow arrows ("ph":"s"/"f"): each
     Msg_send to its Msg_recv (FIFO per channel, matching the simulated
     wormhole mesh), each remote Lock_acquire to the Lock_grant that
     satisfied it, and each Diff_request to the writer's Diff_reply. A
     flow is emitted only once both ends are seen, so every "s" has its
     "f" even on truncated sinks.
   - Counter tracks ("ph":"C"): cumulative per-node sent bytes at each
     Msg_send, and per-node protocol memory at each Mem_sample. *)
let chrome ?(name = "svm") sink =
  let nodes = Hashtbl.create 16 in
  Trace.iter sink (fun ev -> Hashtbl.replace nodes ev.Trace.node ());
  let node_ids = List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) nodes []) in
  let meta =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 0);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.String name) ]);
      ]
    :: List.map
         (fun n ->
           Json.Obj
             [
               ("name", Json.String "thread_name");
               ("ph", Json.String "M");
               ("pid", Json.Int 0);
               ("tid", Json.Int n);
               ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "node %d" n)) ]);
             ])
         node_ids
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char buf ',';
      Json.to_buffer buf m)
    meta;
  let emit j =
    Buffer.add_char buf ',';
    Json.to_buffer buf j
  in
  (* Pairing state. FIFO queues are sound because both the simulated
     network and each request/grant chain are FIFO per key. *)
  let fifo tbl key =
    match Hashtbl.find_opt tbl key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace tbl key q;
        q
  in
  let open_spans : (int, Trace.event) Hashtbl.t = Hashtbl.create 64 in
  let msg_q : (int * int, Trace.event Queue.t) Hashtbl.t = Hashtbl.create 64 in
  let lock_q : (int * int, Trace.event Queue.t) Hashtbl.t = Hashtbl.create 16 in
  let diff_q : (int * int * int, Trace.event Queue.t) Hashtbl.t = Hashtbl.create 16 in
  let sent_bytes : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let next_flow = ref 0 in
  let flow ~fname (a : Trace.event) (b : Trace.event) =
    let id = !next_flow in
    incr next_flow;
    emit
      (Json.Obj
         [
           ("name", Json.String fname);
           ("cat", Json.String "flow");
           ("ph", Json.String "s");
           ("id", Json.Int id);
           ("pid", Json.Int 0);
           ("tid", Json.Int a.Trace.node);
           ("ts", Json.Float a.Trace.time);
         ]);
    emit
      (Json.Obj
         [
           ("name", Json.String fname);
           ("cat", Json.String "flow");
           ("ph", Json.String "f");
           ("bp", Json.String "e");
           ("id", Json.Int id);
           ("pid", Json.Int 0);
           ("tid", Json.Int b.Trace.node);
           ("ts", Json.Float b.Trace.time);
         ])
  in
  let counter ~cname ~time ~key ~value =
    emit
      (Json.Obj
         [
           ("name", Json.String cname);
           ("ph", Json.String "C");
           ("pid", Json.Int 0);
           ("ts", Json.Float time);
           ("args", Json.Obj [ (key, Json.Int value) ]);
         ])
  in
  let instant (ev : Trace.event) =
    emit
      (Json.Obj
         [
           ("name", Json.String (Trace.kind_name ev.Trace.kind));
           ("cat", Json.String "svm");
           ("ph", Json.String "i");
           ("s", Json.String "t");
           ("pid", Json.Int 0);
           ("tid", Json.Int ev.Trace.node);
           ("ts", Json.Float ev.Trace.time);
           ("args", Json.Obj (Trace.kind_fields ev.Trace.kind));
         ])
  in
  Trace.iter sink (fun ev ->
      match ev.Trace.kind with
      | Trace.Wait_begin { span; _ } -> Hashtbl.replace open_spans span ev
      | Trace.Wait_end { span; bucket; resource } -> (
          match Hashtbl.find_opt open_spans span with
          | None -> () (* begin fell off a truncated sink *)
          | Some b ->
              Hashtbl.remove open_spans span;
              emit
                (Json.Obj
                   [
                     ("name", Json.String ("wait:" ^ Trace.bucket_name bucket));
                     ("cat", Json.String "wait");
                     ("ph", Json.String "X");
                     ("pid", Json.Int 0);
                     ("tid", Json.Int b.Trace.node);
                     ("ts", Json.Float b.Trace.time);
                     ("dur", Json.Float (Float.max 0. (ev.Trace.time -. b.Trace.time)));
                     ( "args",
                       Json.Obj [ ("span", Json.Int span); ("resource", Json.Int resource) ]
                     );
                   ]))
      | Trace.Mem_sample { bytes } ->
          counter
            ~cname:(Printf.sprintf "proto_mem node %d" ev.Trace.node)
            ~time:ev.Trace.time ~key:"bytes" ~value:bytes
      | _ -> (
          instant ev;
          match ev.Trace.kind with
          | Trace.Msg_send { dst; bytes; _ } ->
              Queue.push ev (fifo msg_q (ev.Trace.node, dst));
              let total =
                bytes
                + (match Hashtbl.find_opt sent_bytes ev.Trace.node with Some b -> b | None -> 0)
              in
              Hashtbl.replace sent_bytes ev.Trace.node total;
              counter
                ~cname:(Printf.sprintf "sent_bytes node %d" ev.Trace.node)
                ~time:ev.Trace.time ~key:"bytes" ~value:total
          | Trace.Msg_recv { src; _ } -> (
              match Queue.take_opt (fifo msg_q (src, ev.Trace.node)) with
              | Some send -> flow ~fname:"msg" send ev
              | None -> ())
          | Trace.Lock_acquire { lock; remote = true } ->
              Queue.push ev (fifo lock_q (lock, ev.Trace.node))
          | Trace.Lock_grant { lock; dst; _ } -> (
              match Queue.take_opt (fifo lock_q (lock, dst)) with
              | Some acq -> flow ~fname:"lock" acq ev
              | None -> ())
          | Trace.Diff_request { page; writer; _ } ->
              Queue.push ev (fifo diff_q (page, writer, ev.Trace.node))
          | Trace.Diff_reply { page; dst; _ } -> (
              match Queue.take_opt (fifo diff_q (page, ev.Trace.node, dst)) with
              | Some req -> flow ~fname:"diff" req ev
              | None -> ())
          | _ -> ()));
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"";
  if Trace.dropped sink > 0 then
    Buffer.add_string buf (Printf.sprintf ",\"droppedEvents\":%d" (Trace.dropped sink));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write ~what file contents =
  try
    let oc = open_out_bin file in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc contents;
        close_out oc)
  with Sys_error msg -> failwith (Printf.sprintf "cannot write %s file: %s" what msg)

let write_json ~what file doc = write ~what file (Json.to_string_pretty doc ^ "\n")

let write_file fmt ?name file sink =
  write ~what:"trace" file (match fmt with Jsonl -> jsonl sink | Chrome -> chrome ?name sink)

let write_metrics_csv file m = write ~what:"metrics" file (Metrics.to_csv m)
