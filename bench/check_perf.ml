(* CI perf gate.

   Runs the fixed `bench perf` cells in-process (see Harness.Perf) and
   compares each against the checked-in BENCH_perf_baseline.json:

   - minor words per event is gated tightly (default 5% headroom): the
     simulation is deterministic, so allocation per event is effectively
     exact and even a small sustained increase means a hot path started
     boxing again;
   - events/sec and wall-clock are gated loosely (default 2x): CI machines
     are noisy, so only a halving of throughput fails the gate.

   Improvements always pass; run with --update after an intentional change
   to reset the baseline.

   Usage:
     dune exec bench/check_perf.exe                 -- check
     dune exec bench/check_perf.exe -- --update     -- regenerate baseline
     options: --baseline FILE --alloc-tolerance F --speed-tolerance F
              --json FILE (write the measured cells for the CI artifact) *)

type options = {
  mutable baseline : string;
  mutable alloc_tolerance : float; (* fractional headroom on minor words/event *)
  mutable speed_tolerance : float; (* allowed slowdown factor on events/sec and wall *)
  mutable json_out : string option;
  mutable update : bool;
}

let parse_args () =
  let o =
    {
      baseline = "BENCH_perf_baseline.json";
      alloc_tolerance = 0.05;
      speed_tolerance = 2.0;
      json_out = None;
      update = false;
    }
  in
  let rec go = function
    | [] -> ()
    | "--baseline" :: file :: rest ->
        o.baseline <- file;
        go rest
    | "--alloc-tolerance" :: s :: rest ->
        o.alloc_tolerance <- float_of_string s;
        go rest
    | "--speed-tolerance" :: s :: rest ->
        o.speed_tolerance <- float_of_string s;
        go rest
    | "--json" :: file :: rest ->
        o.json_out <- Some file;
        go rest
    | "--update" :: rest ->
        o.update <- true;
        go rest
    | arg :: _ -> failwith (Printf.sprintf "unknown argument %S" arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  o

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let cell_id (r : Harness.Perf.result) =
  Harness.Perf.cell_name r.Harness.Perf.r_cell

(* Baseline lookup: the committed file has the same shape `bench perf
   --perf-out` writes, so `--update` and the CI artifact stay in sync. *)
let baseline_cells o =
  let json =
    match Obs.Json.of_string (read_file o.baseline) with
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "%s is not valid JSON: %s" o.baseline e)
  in
  match Obs.Json.member "cells" json with
  | Some (Obs.Json.List cells) ->
      List.filter_map
        (fun cell ->
          let str k =
            match Obs.Json.member k cell with
            | Some (Obs.Json.String s) -> Some s
            | _ -> None
          in
          let num k = Option.bind (Obs.Json.member k cell) Obs.Json.to_float in
          match (str "app", str "protocol", num "nodes") with
          | Some app, Some proto, Some nodes ->
              Some
                ( Printf.sprintf "%s/%s/%d" app proto (int_of_float nodes),
                  (num "minor_words_per_event", num "events_per_sec", num "wall_s") )
          | _ -> None)
        cells
  | _ -> failwith (Printf.sprintf "%s: missing \"cells\" list" o.baseline)

let check o results =
  let base = baseline_cells o in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun (r : Harness.Perf.result) ->
      let id = cell_id r in
      match List.assoc_opt id base with
      | None -> fail "%s: not in baseline (run with --update to add it)" id
      | Some (words, evps, wall) ->
          (match words with
          | None -> fail "%s: baseline has no minor_words_per_event" id
          | Some w ->
              if r.Harness.Perf.r_minor_words_per_event > w *. (1. +. o.alloc_tolerance) then
                fail "%s: %.1f minor words/event vs baseline %.1f (> %+.0f%% headroom)" id
                  r.Harness.Perf.r_minor_words_per_event w (o.alloc_tolerance *. 100.));
          (match evps with
          | None -> fail "%s: baseline has no events_per_sec" id
          | Some e ->
              if r.Harness.Perf.r_events_per_sec < e /. o.speed_tolerance then
                fail "%s: %.0f events/s vs baseline %.0f (more than %.1fx slower)" id
                  r.Harness.Perf.r_events_per_sec e o.speed_tolerance);
          match wall with
          | None -> fail "%s: baseline has no wall_s" id
          | Some w ->
              if r.Harness.Perf.r_wall_s > w *. o.speed_tolerance then
                fail "%s: %.3f s wall vs baseline %.3f (more than %.1fx slower)" id
                  r.Harness.Perf.r_wall_s w o.speed_tolerance)
    results;
  match List.rev !failures with
  | [] ->
      Printf.printf
        "perf gate: OK (%d cells; alloc headroom %.0f%%, speed tolerance %.1fx)\n"
        (List.length results) (o.alloc_tolerance *. 100.) o.speed_tolerance
  | fs ->
      List.iter (fun s -> Printf.eprintf "FAIL %s\n" s) fs;
      Printf.eprintf "perf gate: %d failure(s)\n" (List.length fs);
      exit 1

let () =
  let o = try parse_args () with Failure msg ->
    Printf.eprintf "check_perf: %s\n" msg;
    exit 2
  in
  let results = Harness.Perf.run_all () in
  Harness.Perf.pp_table Format.std_formatter results;
  Format.pp_print_flush Format.std_formatter ();
  (match o.json_out with
  | None -> ()
  | Some file -> Obs.Export.write_json ~what:"perf" file (Harness.Perf.to_json results));
  if o.update then begin
    Obs.Export.write_json ~what:"baseline" o.baseline (Harness.Perf.to_json results);
    Printf.printf "wrote %s (%d cells)\n" o.baseline (List.length results)
  end
  else check o results
