(** Serializing a trace sink to files, written while the sink is read.

    Two formats:

    - {b JSONL}: one flat JSON object per line (the {!Trace.to_json}
      encoding), trivially greppable and streamable; if the sink overflowed,
      a final [{"ev":"dropped","count":N,"by_kind":{...}}] line records the
      loss, broken down by event kind.
    - {b Chrome [trace_event]}: a JSON document loadable directly by
      [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}, with one
      named track (thread) per simulated node and each protocol event as an
      instant event carrying its structured fields in [args]. Derived
      layers: {!Trace.Wait_begin}/[Wait_end] pairs become complete slices
      (["ph":"X"], named [wait:<bucket>], duration included); cross-node
      causality becomes flow arrows (["ph":"s"/"f"]) — message send to
      receive, remote lock acquire to the grant that satisfied it, diff
      request to the writer's reply; and counter tracks (["ph":"C"])
      chart per-node cumulative sent bytes and sampled protocol memory.
      The pairs come from {!Trace.iter_linked}. *)

type format = Jsonl | Chrome

(** Parse a [--trace-format] argument (["jsonl"] | ["chrome"]). *)
val format_of_string : string -> format option

val format_name : format -> string

(** [jsonl w sink] writes the JSONL document (lines terminated by ['\n'])
    through [w] as it reads the sink. *)
val jsonl : (string -> unit) -> Trace.sink -> unit

(** [chrome w sink] writes the Chrome [trace_event] JSON document through
    [w] as it reads the sink. The process track is named ["svm"]. *)
val chrome : (string -> unit) -> Trace.sink -> unit

(** [write_json ~what file doc] streams [doc]'s pretty serialization and a
    blank line to [file]. Every output file of both CLIs is written in binary
    mode, so output is byte-identical across platforms, and the channel is
    closed even when the write fails; an I/O failure raises
    [Failure "cannot write <what> file: <reason>"] instead of leaking
    [Sys_error]. *)
val write_json : what:string -> string -> Json.t -> unit

(** Stream the sink to [file] in [format], as a trace file. *)
val write_file : format -> string -> Trace.sink -> unit

(** Stream {!Metrics.write_csv}, the long-format CSV of a registry's time
    series, to [file], as a metrics file. *)
val write_metrics_csv : string -> Metrics.t -> unit
