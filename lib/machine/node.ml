(* The two timelines live in their own all-float record: OCaml stores
   floats in such a record unboxed, so the clock bumps on the memory-access
   hot path (Svm.Api charges every simulated load/store) allocate nothing.
   As fields of the mixed record below, every store would box. *)
type clocks = { mutable clock : float; mutable coproc_busy : float }

type t = {
  id : int;
  ck : clocks;
  mutable interrupts : int;
  mutable coproc_requests : int;
}

let create id =
  { id; ck = { clock = 0.; coproc_busy = 0. }; interrupts = 0; coproc_requests = 0 }

let sync_to t time = if time > t.ck.clock then t.ck.clock <- time

let interrupt_service t ~interrupt ~arrival ~cost =
  (* The interrupt delays the node's own future work by (interrupt + cost);
     the reply is timed from the request's arrival. When the node's virtual
     clock has run ahead of [arrival] (a sequential-simulation artifact) the
     total charged overhead is still conserved. *)
  t.interrupts <- t.interrupts + 1;
  t.ck.clock <- t.ck.clock +. interrupt +. cost;
  arrival +. interrupt +. cost

let coproc_service t ~dispatch ~arrival ~cost =
  t.coproc_requests <- t.coproc_requests + 1;
  let start = Float.max arrival t.ck.coproc_busy in
  let finish = start +. dispatch +. cost in
  t.ck.coproc_busy <- finish;
  finish
