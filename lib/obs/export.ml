type format = Jsonl | Chrome

let format_of_string s =
  match String.lowercase_ascii s with
  | "jsonl" -> Some Jsonl
  | "chrome" -> Some Chrome
  | _ -> None

let format_name = function Jsonl -> "jsonl" | Chrome -> "chrome"

let jsonl w sink =
  Trace.iter sink (fun ev ->
      Json.write w (Trace.to_json ev);
      w "\n");
  if Trace.dropped sink > 0 then begin
    Json.write w
      (Json.Obj
         [
           ("ev", Json.String "dropped");
           ("count", Json.Int (Trace.dropped sink));
           ( "by_kind",
             Json.Obj
               (List.map (fun (k, n) -> (k, Json.Int n)) (Trace.dropped_by_kind sink)) );
         ]);
    w "\n"
  end

(* Chrome trace_event JSON: metadata events name the process and one thread
   per node; protocol events become thread-scoped instants ("ph":"i") at
   their simulated microsecond timestamps. On top of that, three derived
   layers Perfetto can actually *analyze*, drawn from the pairs
   Trace.iter_linked reads:

   - Wait_begin/Wait_end pairs (causal layer; see Config.trace_spans) fuse
     into complete events ("ph":"X") named after their Figure-3 bucket, so
     waits show as solid slices with durations instead of tick marks.
   - Cross-node causality draws as flow arrows ("ph":"s"/"f"): each
     Msg_send to its Msg_recv, each remote Lock_acquire to the Lock_grant
     that satisfied it, and each Diff_request to the writer's Diff_reply.
     A flow is emitted only once both ends are seen, so every "s" has its
     "f" even on truncated sinks.
   - Counter tracks ("ph":"C"): cumulative per-node sent bytes at each
     Msg_send, and per-node protocol memory at each Mem_sample. *)
let chrome w sink =
  let nodes = Hashtbl.create 16 in
  Trace.iter sink (fun ev -> Hashtbl.replace nodes ev.Trace.node ());
  let node_ids = List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) nodes []) in
  w "{\"traceEvents\":[";
  Json.write w
    (Json.Obj
       [
         ("name", Json.String "process_name");
         ("ph", Json.String "M");
         ("pid", Json.Int 0);
         ("tid", Json.Int 0);
         ("args", Json.Obj [ ("name", Json.String "svm") ]);
       ]);
  let emit j =
    w ",";
    Json.write w j
  in
  List.iter
    (fun n ->
      emit
        (Json.Obj
           [
             ("name", Json.String "thread_name");
             ("ph", Json.String "M");
             ("pid", Json.Int 0);
             ("tid", Json.Int n);
             ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "node %d" n)) ]);
           ]))
    node_ids;
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
    let kind, _, fields = Trace.describe ev.Trace.kind in
    emit
      (Json.Obj
         [
           ("name", Json.String kind);
           ("cat", Json.String "svm");
           ("ph", Json.String "i");
           ("s", Json.String "t");
           ("pid", Json.Int 0);
           ("tid", Json.Int ev.Trace.node);
           ("ts", Json.Float ev.Trace.time);
           ("args", Json.Obj (fields ()));
         ])
  in
  Trace.iter_linked sink (fun ev opener ->
      match (ev.Trace.kind, opener) with
      | Trace.Wait_begin _, _ | Trace.Wait_end _, None -> ()
      | Trace.Wait_end { span; bucket; resource }, Some b ->
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
                 ("args", Json.Obj [ ("span", Json.Int span); ("resource", Json.Int resource) ]);
               ])
      | Trace.Mem_sample { bytes }, _ ->
          counter
            ~cname:(Printf.sprintf "proto_mem node %d" ev.Trace.node)
            ~time:ev.Trace.time ~key:"bytes" ~value:bytes
      | kind, _ -> (
          instant ev;
          match (kind, opener) with
          | Trace.Msg_send { bytes; _ }, _ ->
              let total =
                bytes
                + (match Hashtbl.find_opt sent_bytes ev.Trace.node with Some b -> b | None -> 0)
              in
              Hashtbl.replace sent_bytes ev.Trace.node total;
              counter
                ~cname:(Printf.sprintf "sent_bytes node %d" ev.Trace.node)
                ~time:ev.Trace.time ~key:"bytes" ~value:total
          | Trace.Msg_recv _, Some send -> flow ~fname:"msg" send ev
          | Trace.Lock_grant _, Some acq -> flow ~fname:"lock" acq ev
          | Trace.Diff_reply _, Some req -> flow ~fname:"diff" req ev
          | _ -> ()));
  w "],\"displayTimeUnit\":\"ms\"";
  if Trace.dropped sink > 0 then w (Printf.sprintf ",\"droppedEvents\":%d" (Trace.dropped sink));
  w "}\n"

(* The writer gathers pieces into 64 KB blocks: a channel write takes the
   channel's lock, and the printers write a few bytes at a time. *)
let write ~what file f =
  try
    let oc = open_out_bin file in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        let block = Buffer.create 65536 in
        f (fun piece ->
            Buffer.add_string block piece;
            if Buffer.length block >= 65536 then begin
              Buffer.output_buffer oc block;
              Buffer.clear block
            end);
        Buffer.output_buffer oc block;
        close_out oc)
  with Sys_error msg -> failwith (Printf.sprintf "cannot write %s file: %s" what msg)

(* A pretty document, then a blank line: the bytes report files have always
   had. *)
let write_json ~what file doc =
  write ~what file (fun w ->
      Json.write ~pretty:true w doc;
      w "\n")

let write_file fmt file sink =
  write ~what:"trace" file (fun w ->
      match fmt with Jsonl -> jsonl w sink | Chrome -> chrome w sink)

let write_metrics_csv file m = write ~what:"metrics" file (fun w -> Metrics.write_csv w m)
