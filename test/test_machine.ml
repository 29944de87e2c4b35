(* Tests for the machine model: cost table, mesh network, node timelines. *)

let check = Alcotest.check

let close = Alcotest.float 1e-6

(* The cost table must reproduce the paper's 4.3 arithmetic exactly. *)
let test_paragon_derived_costs () =
  let c = Machine.Costs.paragon in
  let lat = c.Machine.Costs.message_latency in
  let page = c.Machine.Costs.byte_transfer *. 8192. in
  let intr = c.Machine.Costs.receive_interrupt in
  let fault = c.Machine.Costs.page_fault in
  check close "HLRC page miss" 1172. (fault +. lat +. intr +. page +. lat);
  check close "OHLRC page miss" 482. (fault +. lat +. page +. lat);
  check close "LRC page miss" 1130. (fault +. (3. *. lat) +. intr);
  check close "OLRC page miss" 440. (fault +. (3. *. lat));
  check close "remote acquire" 1550.
    ((3. *. lat) +. (2. *. intr) +. (2. *. c.Machine.Costs.page_invalidate))

let test_network_hops () =
  (* 16 nodes on a 4x4 mesh: node = row * 4 + col *)
  let net = Machine.Network.create ~costs:Machine.Costs.paragon ~nprocs:16 in
  check Alcotest.int "same node" 0 (Machine.Network.hops net ~src:0 ~dst:0);
  check Alcotest.int "same row" 3 (Machine.Network.hops net ~src:0 ~dst:3);
  check Alcotest.int "same col" 3 (Machine.Network.hops net ~src:0 ~dst:12);
  check Alcotest.int "diagonal" 6 (Machine.Network.hops net ~src:0 ~dst:15)

let test_network_transfer_time () =
  let net = Machine.Network.create ~costs:Machine.Costs.paragon ~nprocs:4 in
  check close "loopback free" 0. (Machine.Network.transfer_time net ~src:1 ~dst:1 ~bytes:8192);
  let small = Machine.Network.transfer_time net ~src:0 ~dst:1 ~bytes:0 in
  let large = Machine.Network.transfer_time net ~src:0 ~dst:1 ~bytes:8192 in
  check Alcotest.bool "latency floor" true (small >= 50.);
  check close "page adds 92us" 92. (large -. small)

let test_network_monotone_in_size () =
  let net = Machine.Network.create ~costs:Machine.Costs.paragon ~nprocs:64 in
  let t b = Machine.Network.transfer_time net ~src:3 ~dst:42 ~bytes:b in
  check Alcotest.bool "monotone" true (t 0 < t 100 && t 100 < t 10000)

let test_network_rejects_empty () =
  Alcotest.check_raises "nprocs must be positive"
    (Invalid_argument "Network.create: nprocs must be positive") (fun () ->
      ignore (Machine.Network.create ~costs:Machine.Costs.paragon ~nprocs:0))

let test_node_advance () =
  let n = Machine.Node.create 3 in
  check close "clock starts at 0" 0. n.Machine.Node.ck.Machine.Node.clock;
  n.Machine.Node.ck.Machine.Node.clock <- 15.;
  Machine.Node.sync_to n 12.;
  check close "sync_to never rewinds" 15. n.Machine.Node.ck.Machine.Node.clock;
  Machine.Node.sync_to n 20.;
  check close "sync_to advances" 20. n.Machine.Node.ck.Machine.Node.clock

let test_node_interrupt_service () =
  let n = Machine.Node.create 0 in
  n.Machine.Node.ck.Machine.Node.clock <- 100.;
  let done_t = Machine.Node.interrupt_service n ~interrupt:690. ~arrival:40. ~cost:10. in
  check close "reply timed from arrival" 740. done_t;
  check close "overhead charged to the node" 800. n.Machine.Node.ck.Machine.Node.clock;
  check Alcotest.int "interrupt counted" 1 n.Machine.Node.interrupts

let test_node_coproc_fifo () =
  let n = Machine.Node.create 0 in
  (* Two requests: the second arrives while the first is being serviced. *)
  let t1 = Machine.Node.coproc_service n ~dispatch:5. ~arrival:0. ~cost:100. in
  let t2 = Machine.Node.coproc_service n ~dispatch:5. ~arrival:50. ~cost:100. in
  check close "first" 105. t1;
  check close "second queues behind first" 210. t2;
  check close "compute clock untouched" 0. n.Machine.Node.ck.Machine.Node.clock;
  (* A request arriving after the co-processor went idle starts immediately. *)
  let t3 = Machine.Node.coproc_service n ~dispatch:5. ~arrival:1000. ~cost:10. in
  check close "idle start" 1015. t3

let suite =
  [
    ("paragon derived costs (paper 4.3)", `Quick, test_paragon_derived_costs);
    ("mesh hops", `Quick, test_network_hops);
    ("transfer time", `Quick, test_network_transfer_time);
    ("transfer monotone in size", `Quick, test_network_monotone_in_size);
    ("network rejects nprocs=0", `Quick, test_network_rejects_empty);
    ("node clock", `Quick, test_node_advance);
    ("node interrupt service", `Quick, test_node_interrupt_service);
    ("coproc fifo", `Quick, test_node_coproc_fifo);
  ]
