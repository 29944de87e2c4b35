(* Host-time profile of the benchmark process, taken from outside the
   simulator.

   A SIGPROF timer (process CPU time) samples the OCaml call stack, and each
   sample is charged to the layer of its innermost frame in the
   repository's lib/ tree, so stdlib frames (Hashtbl, List, Array) go to
   their nearest library caller and samples with no lib/ frame go to
   [Other]. GC time comes from Runtime_events. OCaml runs a signal handler
   at the first safe point after a collection, so a tick that fired during
   a GC slice would be charged to the allocation site the handler resumes
   in; a sample whose handler starts within [post_gc_ns] of a collection's
   end is charged to [Ocaml_gc] instead.

   Spans around the benchmark's own calls are Runtime_events user events,
   so they share the GC slices' clock and nest them; everything is kept in
   memory and written out by [write_trace]. *)

type layer =
  | Sim
  | Api
  | Apps
  | Faults
  | Mem
  | Intervals
  | Sync
  | System
  | Machine
  | Svm_gc
  | Runtime
  | Obs
  | Ocaml_gc
  | Other

let layers =
  [
    Sim; Api; Apps; Faults; Mem; Intervals; Sync; System; Machine; Svm_gc; Runtime; Obs; Ocaml_gc;
    Other;
  ]

let layer_name = function
  | Sim -> "sim"
  | Api -> "api"
  | Apps -> "apps"
  | Faults -> "faults"
  | Mem -> "mem"
  | Intervals -> "intervals"
  | Sync -> "sync"
  | System -> "system"
  | Machine -> "machine"
  | Svm_gc -> "svm_gc"
  | Runtime -> "runtime"
  | Obs -> "obs"
  | Ocaml_gc -> "ocaml_gc"
  | Other -> "other"

(* Source files as the compiler records them, relative to the repository
   root. The workload's own code (apps, its traffic generator and RNG) is
   one layer, so a simulator change can be seen not to move it. *)
let layer_of_file file =
  match String.split_on_char '/' file with
  | [ "lib"; "apps"; _ ] | [ "lib"; "harness"; "traffic.ml" ] | [ "lib"; "sim"; "rng.ml" ] ->
      Some Apps
  | [ "lib"; "sim"; _ ] -> Some Sim
  | [ "lib"; "mem"; _ ] -> Some Mem
  | [ "lib"; "proto"; _ ] -> Some Intervals
  | [ "lib"; "machine"; _ ] -> Some Machine
  | [ "lib"; "obs"; _ ] -> Some Obs
  | [ "lib"; "core"; "api.ml" ] -> Some Api
  | [ "lib"; "core"; "faults.ml" ] -> Some Faults
  | [ "lib"; "core"; "intervals.ml" ] -> Some Intervals
  | [ "lib"; "core"; "sync.ml" ] -> Some Sync
  | [ "lib"; "core"; "gc.ml" ] -> Some Svm_gc
  | [ "lib"; "core"; ("runtime.ml" | "invariants.ml") ] -> Some Runtime
  | [ "lib"; "core"; ("stats.ml" | "report_json.ml") ] -> Some Obs
  | [ "lib"; "core"; _ ] -> Some System
  | _ -> None

(* [frames] innermost first; [None] is a frame without debug information. *)
let attribute ~post_gc frames =
  if post_gc then Ocaml_gc
  else
    match List.find_map (fun f -> Option.bind f layer_of_file) frames with
    | Some l -> l
    | None -> Other

let count layers_of_samples =
  List.map (fun l -> (l, List.length (List.filter (( = ) l) layers_of_samples))) layers

(* --- recording ------------------------------------------------------- *)

(* A handler starting this soon after a collection ended was delayed by
   it. On sor-lrc16 and kv-mixed the handlers a collection delayed start
   1-5 us after its end, and none start 5-20 us after; the other samples
   spread over the gaps between collections, so a 10 us window takes in
   under 1% of them. *)
let post_gc_ns = 10_000L

(* Whether a sample marked at [ts] was delayed by the GC slice that ended
   at [last_end]; [None] before the first slice. *)
let after_gc ~last_end ts =
  match last_end with Some e -> Int64.sub ts e < post_gc_ns | None -> false

let stack_depth = 48

type Runtime_events.User.tag += Sample | Span

type sample = { s_stack : Printexc.raw_backtrace; s_post_gc : bool; s_span : string option }

type slice = { g_major : bool; g_begin : int64; g_end : int64; g_span : string option }

type span = { p_name : string; p_begin : int64; p_end : int64 }

let event_prefix = "perfbench."

let sample_event =
  Runtime_events.User.register (event_prefix ^ "sample") Sample Runtime_events.Type.unit

let span_events = Hashtbl.create 4

let span_event name =
  match Hashtbl.find_opt span_events name with
  | Some ev -> ev
  | None ->
      let ev = Runtime_events.User.register (event_prefix ^ name) Span Runtime_events.Type.span in
      Hashtbl.add span_events name ev;
      ev

let cursor = ref None

let polling = ref false

let samples = ref []

let slices = ref []

let spans = ref []

let lost_events = ref 0

(* Event-stream state: the open span; the GC phases now open (OCaml 5.1
   does not always close them in the order it opened them, so a slice is
   the time any phase is open), when the open slice began and which kind
   of work it did; the end of the last slice; what the latest sample mark
   found. *)
let open_span = ref None

let open_phases = Hashtbl.create 16

let open_count = ref 0

let slice_begin = ref 0L

let slice_minor = ref false

let slice_major = ref false

let last_gc_end = ref None

let last_mark = ref (false, None)

let ns ts = Runtime_events.Timestamp.to_int64 ts

(* Gc.quick_stat and Gc.set are phases too, but not collection work. *)
let gc_work = function
  | Runtime_events.EV_EXPLICIT_GC_SET | EV_EXPLICIT_GC_STAT -> false
  | _ -> true

let callbacks =
  let runtime_begin _ ts phase =
    if gc_work phase then begin
      if !open_count = 0 then begin
        slice_begin := ns ts;
        slice_minor := false;
        slice_major := false
      end;
      let name = Runtime_events.runtime_phase_name phase in
      if String.starts_with ~prefix:"minor" name then slice_minor := true
      else if String.starts_with ~prefix:"major" name then slice_major := true;
      let n = Option.value ~default:0 (Hashtbl.find_opt open_phases phase) in
      Hashtbl.replace open_phases phase (n + 1);
      incr open_count
    end
  in
  (* An end whose begin came before the cursor existed is skipped. *)
  let runtime_end _ ts phase =
    match Hashtbl.find_opt open_phases phase with
    | Some n when n > 0 ->
        Hashtbl.replace open_phases phase (n - 1);
        decr open_count;
        if !open_count = 0 then begin
          let e = ns ts in
          slices :=
            {
              g_major = !slice_major || not !slice_minor;
              g_begin = !slice_begin;
              g_end = e;
              g_span = Option.map fst !open_span;
            }
            :: !slices;
          last_gc_end := Some e
        end
    | _ -> ()
  in
  let lost_events _ n = lost_events := !lost_events + n in
  let on_sample _ ts _ () =
    last_mark := (after_gc ~last_end:!last_gc_end (ns ts), Option.map fst !open_span)
  in
  let on_span _ ts ev (v : Runtime_events.Type.span) =
    let name = Runtime_events.User.name ev in
    let skip = String.length event_prefix in
    let name = String.sub name skip (String.length name - skip) in
    match (v, !open_span) with
    | Begin, _ -> open_span := Some (name, ns ts)
    | End, Some (n, b) when n = name ->
        spans := { p_name = name; p_begin = b; p_end = ns ts } :: !spans;
        open_span := None
    | End, _ -> ()
  in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()
  |> Runtime_events.Callbacks.add_user_event Runtime_events.Type.unit on_sample
  |> Runtime_events.Callbacks.add_user_event Runtime_events.Type.span on_span

(* The tick handler polls too, so a tick landing inside a poll must not
   re-enter the cursor. *)
let poll () =
  match !cursor with
  | Some c when not !polling ->
      polling := true;
      ignore (Runtime_events.read_poll c callbacks None);
      polling := false
  | _ -> ()

let on_tick _ =
  if not !polling then begin
    Runtime_events.User.write sample_event ();
    let stack = Printexc.get_callstack stack_depth in
    poll ();
    let post_gc, span = !last_mark in
    samples := { s_stack = stack; s_post_gc = post_gc; s_span = span } :: !samples
  end

let set_timer period =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = period; it_value = period })

(* ITIMER_PROF fires at most once per kernel tick, 250 Hz on a kernel built
   with CONFIG_HZ=250. *)
let hz = 250.

let start () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None);
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_tick);
  set_timer (1. /. hz)

let stop () =
  set_timer 0.;
  Sys.set_signal Sys.sigprof Sys.Signal_ignore;
  poll ()

let span name f =
  let ev = span_event name in
  Runtime_events.User.write ev Begin;
  Fun.protect ~finally:(fun () -> Runtime_events.User.write ev End) f

(* --- results --------------------------------------------------------- *)

let frames stack =
  match Printexc.backtrace_slots stack with
  | None -> []
  | Some slots ->
      Array.to_list slots
      |> List.map (fun s -> Option.map (fun l -> l.Printexc.filename) (Printexc.Slot.location s))

type profile = {
  wall_s : float;  (** Duration of the span. *)
  counts : (layer * int) list;  (** Samples per layer, every layer listed. *)
  minor_s : float;  (** Minor collections inside the span. *)
  major_s : float;  (** Major slices inside the span. *)
  lost : int;  (** Runtime events the ring dropped before a poll; should be 0. *)
}

let seconds ns = Int64.to_float ns /. 1e9

let profile name =
  let in_span = Option.equal String.equal (Some name) in
  let span =
    match List.find_opt (fun p -> p.p_name = name) !spans with
    | Some p -> p
    | None -> failwith ("Sampler.profile: no span " ^ name)
  in
  let layers_of_samples =
    List.filter_map
      (fun s ->
        if in_span s.s_span then Some (attribute ~post_gc:s.s_post_gc (frames s.s_stack))
        else None)
      !samples
  in
  let gc major =
    List.fold_left
      (fun acc g ->
        if in_span g.g_span && g.g_major = major then Int64.add acc (Int64.sub g.g_end g.g_begin)
        else acc)
      0L !slices
  in
  {
    wall_s = seconds (Int64.sub span.p_end span.p_begin);
    counts = count layers_of_samples;
    minor_s = seconds (gc false);
    major_s = seconds (gc true);
    lost = !lost_events;
  }

(* Chrome trace-event JSON: the spans, and each GC slice nested under the
   span it fell in (chrome://tracing or Perfetto open it). *)
let write_trace path =
  let t0 = List.fold_left (fun acc p -> min acc p.p_begin) Int64.max_int !spans in
  let us t = Int64.to_float (Int64.sub t t0) /. 1e3 in
  let event name ~cat ~b ~e ~parent =
    Obs.Json.Obj
      [
        ("name", String name);
        ("cat", String cat);
        ("ph", String "X");
        ("pid", Int 1);
        ("tid", Int 1);
        ("ts", Float (us b));
        ("dur", Float (us e -. us b));
        ("args", Obj [ ("parent", match parent with Some p -> String p | None -> Null) ]);
      ]
  in
  let events =
    List.rev_map
      (fun p -> event p.p_name ~cat:"perfbench" ~b:p.p_begin ~e:p.p_end ~parent:None)
      !spans
    @ List.rev_map
        (fun g ->
          event
            (if g.g_major then "major_slice" else "minor")
            ~cat:"ocaml_gc" ~b:g.g_begin ~e:g.g_end ~parent:g.g_span)
        (List.filter (fun g -> g.g_span <> None) !slices)
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Obs.Json.to_string (Obj [ ("traceEvents", List events) ])))
