(* Sampled time-series metrics. See metrics.mli for the model.

   Storage: each series keeps one growable float array per row (node, or a
   single run-scope row). Counter cells start at 0 and accumulate; gauge
   cells start at nan (= "never sampled") and are forward-filled at read
   time, which keeps the distinction between "sampled zero" and "no sample
   this bucket" until serialization. Histograms are 64 fixed log2 buckets;
   heatmaps are hashtables over page indices. *)

type series_kind = Counter | Gauge

type series = {
  sr_name : string;
  sr_kind : series_kind;
  mutable sr_rows : float array array;  (* row -> per-bucket cells *)
}

type counter = { c_series : series; c_owner : t }
and gauge = { g_series : series; g_owner : t }

and histogram = {
  h_name : string;
  h_counts : int array;  (* 64 log2 buckets *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_max : float;
}

and heatmap = {
  hm_name : string;
  hm_cells : (int, float ref) Hashtbl.t;
}

and t = {
  m_interval : float;
  m_nnodes : int;
  mutable m_buckets : int;  (* one past the highest touched bucket *)
  mutable m_series : series list;  (* reversed registration order *)
  mutable m_hists : histogram list;
  mutable m_heats : heatmap list;
}

let create ~interval ~nnodes =
  if not (interval > 0.) then invalid_arg "Metrics.create: interval must be > 0";
  if nnodes <= 0 then invalid_arg "Metrics.create: nnodes must be > 0";
  {
    m_interval = interval;
    m_nnodes = nnodes;
    m_buckets = 0;
    m_series = [];
    m_hists = [];
    m_heats = [];
  }

let interval t = t.m_interval
let nnodes t = t.m_nnodes
let buckets t = t.m_buckets

(* Registration *)

let unset_of = function Counter -> 0. | Gauge -> Float.nan

let find_series t name = List.find_opt (fun s -> s.sr_name = name) t.m_series

let register_series t name kind ~per_node =
  match find_series t name with
  | Some s ->
      if s.sr_kind <> kind then
        invalid_arg (Printf.sprintf "Metrics: %S already registered with another kind" name);
      s
  | None ->
      let rows = if per_node then t.m_nnodes else 1 in
      let s = { sr_name = name; sr_kind = kind; sr_rows = Array.init rows (fun _ -> [||]) } in
      t.m_series <- s :: t.m_series;
      s

let counter ?(per_node = true) t name =
  { c_series = register_series t name Counter ~per_node; c_owner = t }

let gauge ?(per_node = true) t name =
  { g_series = register_series t name Gauge ~per_node; g_owner = t }

let histogram t name =
  match List.find_opt (fun h -> h.h_name = name) t.m_hists with
  | Some h -> h
  | None ->
      let h =
        { h_name = name; h_counts = Array.make 64 0; h_count = 0; h_sum = 0.; h_max = 0. }
      in
      t.m_hists <- h :: t.m_hists;
      h

let heatmap t name =
  match List.find_opt (fun hm -> hm.hm_name = name) t.m_heats with
  | Some hm -> hm
  | None ->
      let hm = { hm_name = name; hm_cells = Hashtbl.create 64 } in
      t.m_heats <- hm :: t.m_heats;
      hm

(* Recording *)

let bucket_of t time =
  let b = int_of_float (time /. t.m_interval) in
  if b < 0 then 0 else b

let cell t s ~node ~time =
  let row = if Array.length s.sr_rows = 1 then 0 else node in
  if row < 0 || row >= Array.length s.sr_rows then
    invalid_arg (Printf.sprintf "Metrics: node %d out of range for %S" node s.sr_name);
  let b = bucket_of t time in
  if b >= t.m_buckets then t.m_buckets <- b + 1;
  let cells = s.sr_rows.(row) in
  if b >= Array.length cells then begin
    let cap = max 16 (max (b + 1) (2 * Array.length cells)) in
    let grown = Array.make cap (unset_of s.sr_kind) in
    Array.blit cells 0 grown 0 (Array.length cells);
    s.sr_rows.(row) <- grown;
    (row, b)
  end
  else (row, b)

let add c ~node ~time v =
  let row, b = cell c.c_owner c.c_series ~node ~time in
  let cells = c.c_series.sr_rows.(row) in
  cells.(b) <- cells.(b) +. v

let sample g ~node ~time v =
  let row, b = cell g.g_owner g.g_series ~node ~time in
  g.g_series.sr_rows.(row).(b) <- v

(* Log2 bucket of v: 0 for v < 1, else b with 2^(b-1) <= v < 2^b, clamped
   to 63. The doubling loop avoids float log imprecision at the edges. *)
let log2_bucket v =
  if not (v >= 1.) then 0
  else begin
    let b = ref 1 and edge = ref 2. in
    while v >= !edge && !b < 63 do
      incr b;
      edge := !edge *. 2.
    done;
    !b
  end

let bucket_upper b = if b = 0 then 1. else Float.of_int 2 ** Float.of_int b

let observe h v =
  let b = log2_bucket v in
  h.h_counts.(b) <- h.h_counts.(b) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v > h.h_max then h.h_max <- v

let hit hm ~page v =
  match Hashtbl.find_opt hm.hm_cells page with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add hm.hm_cells page (ref v)

let set hm ~page v =
  match Hashtbl.find_opt hm.hm_cells page with
  | Some r -> r := v
  | None -> Hashtbl.add hm.hm_cells page (ref v)

(* Reading *)

(* Materialize a row to [n] cells: zero-fill counters; forward-fill gauges
   (a bucket without a sample carries the previous one; 0 before the
   first). *)
let materialize_row kind row n =
  let out = Array.make n 0. in
  let last = ref 0. in
  for i = 0 to n - 1 do
    let v = if i < Array.length row then row.(i) else Float.nan in
    (match kind with
    | Counter -> if not (Float.is_nan v) then out.(i) <- v
    | Gauge -> if not (Float.is_nan v) then last := v);
    if kind = Gauge then out.(i) <- !last
  done;
  out

let series t =
  List.rev_map
    (fun s ->
      (s.sr_name, s.sr_kind, Array.map (fun row -> materialize_row s.sr_kind row t.m_buckets) s.sr_rows))
    t.m_series

let series_total t name =
  match find_series t name with
  | None -> None
  | Some s ->
      let total = Array.make t.m_buckets 0. in
      Array.iter
        (fun row ->
          let m = materialize_row s.sr_kind row t.m_buckets in
          Array.iteri (fun i v -> total.(i) <- total.(i) +. v) m)
        s.sr_rows;
      Some total

(* Nearest-rank quantile over the log2 buckets, same convention as
   Stats.quantile: rank = ceil (p * count) clamped to [1, count]; report
   the inclusive upper edge of the bucket holding that rank. None on an
   empty histogram. *)
let quantile_upper h p =
  if h.h_count = 0 then None
  else begin
    let rank =
      min h.h_count (max 1 (int_of_float (ceil (p *. float_of_int h.h_count))))
    in
    let b = ref 0 and seen = ref 0 in
    while !seen < rank && !b < 64 do
      seen := !seen + h.h_counts.(!b);
      if !seen < rank then incr b
    done;
    Some (bucket_upper (min !b 63))
  end

type histogram_stats = {
  hs_count : int;
  hs_sum : float;
  hs_max : float;
  hs_p50 : float option;
  hs_p90 : float option;
  hs_p99 : float option;
}

let histogram_stats h =
  {
    hs_count = h.h_count;
    hs_sum = h.h_sum;
    hs_max = h.h_max;
    hs_p50 = quantile_upper h 0.5;
    hs_p90 = quantile_upper h 0.9;
    hs_p99 = quantile_upper h 0.99;
  }

let histogram_buckets h =
  let out = ref [] in
  for b = 63 downto 0 do
    if h.h_counts.(b) > 0 then out := (bucket_upper b, h.h_counts.(b)) :: !out
  done;
  !out

let histograms t = List.rev_map (fun h -> (h.h_name, h)) t.m_hists

let heatmap_entries hm =
  Hashtbl.fold (fun page r acc -> (page, !r) :: acc) hm.hm_cells []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let heatmap_find hm page = Option.map ( ! ) (Hashtbl.find_opt hm.hm_cells page)

let heatmaps t = List.rev_map (fun hm -> (hm.hm_name, hm)) t.m_heats

(* Serialization *)

let schema =
  let open Schema in
  let series_obj =
    [
      field "name" str (fun (name, _, _) -> name);
      field "kind" (enum [ "counter"; "gauge" ]) (function
        | _, Counter, _ -> "counter"
        | _, Gauge, _ -> "gauge");
      field "per_node" bool (fun (_, _, rows) -> Array.length rows > 1);
      field "rows" (list (list num)) (fun (_, _, rows) ->
          Array.to_list (Array.map Array.to_list rows));
    ]
  in
  let pct get (_, s, _) = Option.get (get s) in
  let histogram_obj =
    [
      field "name" str (fun (name, _, _) -> name);
      field "count" int (fun (_, s, _) -> s.hs_count);
      field "sum" num (fun (_, s, _) -> s.hs_sum);
      field "max" num (fun (_, s, _) -> s.hs_max);
      (* Percentiles of an empty histogram are undefined: absent rather
         than a fake 0. *)
      iff (positive "count")
        [
          field "p50" num (pct (fun s -> s.hs_p50));
          field "p90" num (pct (fun s -> s.hs_p90));
          field "p99" num (pct (fun s -> s.hs_p99));
        ];
      field "buckets"
        (list (obj [ field "le" num fst; field "count" int snd ]))
        (fun (_, _, buckets) -> buckets);
      rule (fun h ->
          let count b = Option.value ~default:0 (int_at "count" b) in
          let total = List.fold_left (fun acc b -> acc + count b) 0 (list_at "buckets" h) in
          if total = count h then None
          else Some (Printf.sprintf "bucket counts sum to %d, count says %d" total (count h)));
    ]
  in
  let heatmap_obj =
    [
      field "name" str fst;
      field "pages" (list (obj [ field "page" int fst; field "value" num snd ])) snd;
    ]
  in
  [
    field "interval_us" num interval;
    field "buckets" (at_least 0) buckets;
    field "series" (list (obj series_obj)) series;
    field "histograms" (list (obj histogram_obj)) (fun t ->
        List.map (fun (name, h) -> (name, histogram_stats h, histogram_buckets h)) (histograms t));
    field "heatmaps" (list (obj heatmap_obj)) (fun t ->
        List.map (fun (name, hm) -> (name, heatmap_entries hm)) (heatmaps t));
    (* Every series row is exactly [buckets] wide. *)
    rule (fun tl ->
        let width = Option.value ~default:0 (int_at "buckets" tl) in
        List.concat_map (list_at "rows") (list_at "series" tl)
        |> List.find_map (function
             | Json.List vs when List.length vs <> width ->
                 Some
                   (Printf.sprintf "a series row has %d values but %d buckets" (List.length vs)
                      width)
             | _ -> None));
  ]

let to_json = Schema.encode schema

let write_csv w t =
  w "time_us,node,series,value\n";
  let all = series t in
  for b = 0 to t.m_buckets - 1 do
    let time = Json.float_string (float_of_int b *. t.m_interval) in
    List.iter
      (fun (name, _, rows) ->
        let per_node = Array.length rows > 1 in
        Array.iteri
          (fun i row ->
            let node = if per_node then i else -1 in
            w (String.concat "," [ time; string_of_int node; name; Json.float_string row.(b) ]);
            w "\n")
          rows)
      all
  done

(* Eight block elements, one-eighth steps: U+2581 .. U+2588. *)
let spark_levels =
  [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
     "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let resample values width =
  let n = Array.length values in
  if n <= width then values
  else
    Array.init width (fun i ->
        (* Equal-ish runs of adjacent buckets, summed. *)
        let lo = i * n / width and hi = (i + 1) * n / width in
        let acc = ref 0. in
        for j = lo to max lo (hi - 1) do
          acc := !acc +. values.(j)
        done;
        !acc)

let spark ?(width = 64) values =
  let values = resample values (max 1 width) in
  let hi = Array.fold_left max 0. values in
  let buf = Buffer.create (3 * Array.length values) in
  Array.iter
    (fun v ->
      let level =
        if hi <= 0. || v <= 0. then 0
        else min 7 (int_of_float (v /. hi *. 8.))
      in
      Buffer.add_string buf spark_levels.(level))
    values;
  Buffer.contents buf
