(* kvstore-skew artifact: how each protocol's serving capacity degrades as
   the Zipfian skew concentrates traffic on a few hot buckets.

   The grid is protocol x theta x write ratio; every cell runs the same
   open-loop plan (same ops, rate, seed) so throughput and latency are
   directly comparable across cells. Under skew the hot bucket's lock — and
   with it the bucket's page — bounces between every node that hits it:
   home-based protocols pay a fetch from the fixed home per handoff, while
   homeless LRC accumulates diff chains along the lock's travel path. The
   table makes that divergence visible as theta rises.

   Cells are verify:false: the reference replay's page reads would land
   inside the timing window and inflate the elapsed time; correctness of
   the workload is covered by the differential soaks and the unit tests. *)

type row = {
  sv_proto : Svm.Config.protocol;
  sv_theta : float;
  sv_write_ratio : float;
  sv_ops : int;
  sv_throughput : float;  (** completed operations per simulated second *)
  sv_p50_us : float;
  sv_p99_us : float;
  sv_max_us : float;
}

let default_thetas = [ 0.0; 0.5; 0.9; 0.99 ]

let default_write_ratios = [ 0.0; 0.2; 0.5 ]

(* Cells are enumerated protocol-major in list order and evaluated with
   [Pool.map], which returns results in input order — the rendered table is
   byte-identical for any --jobs width. *)
let sweep ?(pool = Pool.sequential) ?(scale = Apps.Registry.Test) ?(nprocs = 8)
    ?(thetas = default_thetas) ?(write_ratios = default_write_ratios) ?params () =
  let base =
    match params with Some p -> p | None -> Apps.Registry.kvstore_params scale
  in
  let cells =
    List.concat_map
      (fun proto ->
        List.concat_map
          (fun theta -> List.map (fun w -> (proto, theta, w)) write_ratios)
          thetas)
      Svm.Config.extended_protocols
  in
  Pool.map pool
    (fun (proto, theta, write_ratio) ->
      let p =
        {
          base with
          Apps.Kvstore.traffic =
            { base.Apps.Kvstore.traffic with Traffic.theta; write_ratio };
        }
      in
      let app = Apps.Registry.kvstore_of_params p in
      let cfg = Svm.Config.make ~nprocs proto in
      let r = Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:false) in
      let ops, p50, p99, mx =
        match r.Svm.Runtime.r_ops with
        | None -> (0, 0., 0., 0.)
        | Some o ->
            let lats = o.Svm.Runtime.or_lats in
            let pct q =
              match Svm.Stats.quantile lats q with Some v -> v | None -> 0.
            in
            let mx = if Array.length lats = 0 then 0. else lats.(Array.length lats - 1) in
            (Array.length lats, pct 0.5, pct 0.99, mx)
      in
      {
        sv_proto = proto;
        sv_theta = theta;
        sv_write_ratio = write_ratio;
        sv_ops = ops;
        sv_throughput = Svm.Runtime.throughput r;
        sv_p50_us = p50;
        sv_p99_us = p99;
        sv_max_us = mx;
      })
    cells

let report ppf ?pool ?scale ?nprocs ?thetas ?write_ratios ?params () =
  let rows = sweep ?pool ?scale ?nprocs ?thetas ?write_ratios ?params () in
  Format.fprintf ppf "@.=== KV-store skew sweep (open-loop Zipfian serving) ===@.@.";
  Format.fprintf ppf "  %-6s %6s %6s %9s %11s %10s %10s %10s@." "proto" "theta" "write"
    "ops" "ops/s" "p50(us)" "p99(us)" "max(us)";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-6s %6.2f %6.2f %9d %11.0f %10.0f %10.0f %10.0f@."
        (Svm.Config.protocol_name r.sv_proto)
        r.sv_theta r.sv_write_ratio r.sv_ops r.sv_throughput r.sv_p50_us r.sv_p99_us
        r.sv_max_us)
    rows;
  Format.fprintf ppf "@."
