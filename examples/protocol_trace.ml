(* Reproduces the paper's Figures 1 and 2 as annotated event timelines.

   The scenario is the one in the figures: node 0 writes x under a lock,
   node 1 then acquires the lock and reads x. The page holding x is homed on
   node 2, so the home-based traces show the third-party diff flush and the
   full-page fetch, while the homeless traces show diff requests going back
   to the writer. Running all four protocols side by side makes the
   structural differences of Figures 1-2 directly visible.

     dune exec examples/protocol_trace.exe *)

let app ctx =
  let me = Svm.Api.pid ctx in
  if me = 0 then
    (* x lives on a page homed at node 2, as in Figure 1(b)/(c). *)
    ignore (Svm.Api.malloc ctx ~name:"x" ~home:(fun _ -> 2) 1);
  Svm.Api.barrier ctx;
  let x = Svm.Api.root ctx "x" in
  (* Everyone caches the page first, so the homeless protocols later show a
     diff fetch (Figure 1(a)) rather than a cold full-page copy. *)
  ignore (Svm.Api.read_int ctx x);
  Svm.Api.barrier ctx;
  (match me with
  | 0 ->
      Svm.Api.lock ctx 5;
      Svm.Api.write_int ctx x 42;
      Svm.Api.unlock ctx 5
  | 1 ->
      (* A tiny delay so node 0 acquires first, as in the figures. *)
      Svm.Api.compute ctx 2000.;
      Svm.Api.lock ctx 5;
      let v = Svm.Api.read_int ctx x in
      Printf.printf "        (node 1 reads x = %d)\n" v;
      Svm.Api.unlock ctx 5
  | _ -> ());
  Svm.Api.barrier ctx

let () =
  List.iter
    (fun protocol ->
      Printf.printf "==== %s ====\n" (Svm.Config.protocol_name protocol);
      let cfg = Svm.Config.make ~nprocs:3 protocol in
      let tap (e : Obs.Trace.event) =
        Option.iter (Printf.printf "[%9.1f us] %s\n" e.time) (Obs.Trace.legacy_line e)
      in
      ignore (Svm.Runtime.run ~sink:(Obs.Trace.create_sink ~capacity:0 ~tap ()) cfg app);
      print_newline ())
    Svm.Config.extended_protocols
