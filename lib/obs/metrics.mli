(** Sampled time-series metrics: the flight recorder behind [--metrics].

    A registry holds four primitive shapes, all keyed by simulated time and
    registered under stable names:

    - {b counters}: per-node (or run-scope) values accumulated into fixed
      time buckets of [interval] microseconds — messages sent, bytes,
      faults, retransmits per interval;
    - {b gauges}: instantaneous values sampled on the same cadence —
      in-flight packets, engine event-set size, live protocol memory.
      A bucket never sampled carries the previous sample forward
      (step-interpolation), so gauge rows are always dense;
    - {b histograms}: run-global log2-bucketed latency distributions
      (page-fetch, lock-acquire, barrier-wait, ...). Bucket 0 counts
      values in [0, 1); bucket [b >= 1] counts [2^(b-1), 2^b). Quantiles
      follow the same nearest-rank convention as [Stats.quantile] and
      report the {e inclusive upper edge} of the selected bucket, so they
      are conservative (never under-report) to within one power of two;
    - {b heatmaps}: per-page scalars — fault counts, diff counts, home
      assignment — the paper's home-placement effect as a picture.

    Everything is plain deterministic arithmetic on simulated time: two
    same-seed runs produce byte-identical serializations ([to_json],
    [write_csv]). The registry allocates on registration and on bucket growth
    only; the per-event [add]/[observe] path is allocation-free. *)

type t

type counter
type gauge
type histogram
type heatmap

type series_kind = Counter | Gauge

(** [create ~interval ~nnodes] makes an empty registry with time buckets of
    [interval] simulated microseconds. Raises [Invalid_argument] unless
    [interval > 0] and [nnodes > 0]. *)
val create : interval:float -> nnodes:int -> t

val interval : t -> float

val nnodes : t -> int

(** Number of time buckets the recorder spans: one past the highest bucket
    touched by any [add]/[sample] (0 while nothing was recorded). *)
val buckets : t -> int

(** {1 Registration}

    Registering a name twice returns the existing instrument (the kind must
    match; mismatch raises [Invalid_argument]). Serialization order is
    registration order, so register in a fixed order for determinism. *)

(** [counter t name] registers a per-node counter ([~per_node:false] for a
    single run-scope row). *)
val counter : ?per_node:bool -> t -> string -> counter

val gauge : ?per_node:bool -> t -> string -> gauge

val histogram : t -> string -> histogram

val heatmap : t -> string -> heatmap

(** {1 Recording} *)

(** [add c ~node ~time v] accumulates [v] into the bucket containing
    simulated microsecond [time]. [node] is ignored by run-scope counters. *)
val add : counter -> node:int -> time:float -> float -> unit

(** [sample g ~node ~time v] records an instantaneous reading; the last
    sample within a bucket wins. *)
val sample : gauge -> node:int -> time:float -> float -> unit

(** [observe h v] adds one value to the histogram (negative values count in
    bucket 0). *)
val observe : histogram -> float -> unit

(** [hit hm ~page v] accumulates [v] onto a page cell. *)
val hit : heatmap -> page:int -> float -> unit

(** [set hm ~page v] overwrites a page cell (last write wins — used for
    labels such as the page's home node). *)
val set : heatmap -> page:int -> float -> unit

(** {1 Reading} *)

(** All series in registration order, rows materialized to [buckets t]
    values each: one row per node for per-node series, one row for
    run-scope ones. Counter rows are zero-filled, gauge rows carry the
    last sample forward (0 before the first sample). *)
val series : t -> (string * series_kind * float array array) list

(** Per-bucket sum across a series' rows (length [buckets t]); [None] if no
    series of that name was registered. *)
val series_total : t -> string -> float array option

type histogram_stats = {
  hs_count : int;
  hs_sum : float;
  hs_max : float;  (** Exact maximum observed (not an edge). *)
  hs_p50 : float option;
  hs_p90 : float option;
  hs_p99 : float option;
      (** Nearest-rank bucket upper edges; [None] when the histogram is
          empty (percentiles of nothing are undefined, not 0). *)
}

val histogram_stats : histogram -> histogram_stats

(** Non-empty [(upper_edge, count)] buckets, ascending. *)
val histogram_buckets : histogram -> (float * int) list

val histograms : t -> (string * histogram) list

(** [(page, value)] cells, ascending by page. *)
val heatmap_entries : heatmap -> (int * float) list

(** Value of one page cell, [None] if never touched. *)
val heatmap_find : heatmap -> int -> float option

val heatmaps : t -> (string * heatmap) list

(** {1 Serialization} *)

(** The report-JSON [timeline] block:
    [{"interval_us", "buckets", "series": [{name; kind; per_node; rows}],
      "histograms": [{name; count; sum; max; p50; p90; p99;
                      buckets: [{le; count}]}],
      "heatmaps": [{name; pages: [{page; value}]}]}].
    The [p50]/[p90]/[p99] fields are present iff [count > 0]. Its checks:
    every series row is [buckets] wide, and a histogram's bucket counts
    sum to its [count]. *)
val schema : t Schema.t

(** [Schema.encode schema]. *)
val to_json : t -> Json.t

(** [write_csv w m] writes the long-format CSV of the time series
    (histograms and heatmaps live in [to_json]) through [w], a row at a
    time: header [time_us,node,series,value], then one row per bucket x
    row x series in bucket-major order. Run-scope rows use node [-1].
    Values print via {!Json.float_string}. *)
val write_csv : (string -> unit) -> t -> unit

(** Unicode sparkline of [values] (block elements U+2581-2588, scaled to
    the maximum; empty string for the empty array). [width] (default 64)
    caps the length: longer inputs are resampled by summing equal runs of
    adjacent buckets — right for counters; pass gauges through
    {!val-series} at native resolution or accept the summed approximation. *)
val spark : ?width:int -> float array -> string
