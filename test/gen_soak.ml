(* Soak golden generator: the six fault-soak tables at Test scale, exactly
   as [bench/main.exe -- --scale test <artifact>] prints them. Dune diffs
   the output against test/golden/soak.txt, so a change to chaos, kill,
   partition or detector behaviour (or to a table's layout) fails the
   suite. Output is identical at any pool width. After an intentional
   change, refresh with [dune promote]. *)

let () =
  let oc = open_out_bin "soak.txt" in
  let ppf = Format.formatter_of_out_channel oc in
  let pool = Harness.Pool.create ~jobs:(Harness.Pool.default_jobs ()) in
  List.iter (fun name -> ignore (Harness.Soak.report ppf ~pool name)) Harness.Soak.names;
  Format.pp_print_flush ppf ();
  close_out oc
