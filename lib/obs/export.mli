(** Serializing a trace sink to files / strings.

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
      chart per-node cumulative sent bytes and sampled protocol memory. *)

type format = Jsonl | Chrome

(** Parse a [--trace-format] argument (["jsonl"] | ["chrome"]). *)
val format_of_string : string -> format option

val format_name : format -> string

(** JSONL document (lines terminated by ['\n']). *)
val jsonl : Trace.sink -> string

(** Chrome [trace_event] JSON document. [name] labels the process track
    (e.g. ["lu/hlrc/8"]). *)
val chrome : ?name:string -> Trace.sink -> string

(** [write ~what file contents] writes [contents] to [file] in binary mode,
    so output is byte-identical across platforms. The channel is closed
    even when the write fails; an I/O failure raises
    [Failure "cannot write <what> file: <reason>"] instead of leaking
    [Sys_error]. Every output file of both CLIs goes through it. *)
val write : what:string -> string -> string -> unit

(** {!write} of a JSON document: its pretty serialization and a newline. *)
val write_json : what:string -> string -> Json.t -> unit

(** Write the sink to [file] in [format] ({!write}, as a trace file). *)
val write_file : format -> ?name:string -> string -> Trace.sink -> unit

(** Write {!Metrics.to_csv}, the long-format CSV of a registry's time
    series, to [file] ({!write}, as a metrics file). *)
val write_metrics_csv : string -> Metrics.t -> unit
