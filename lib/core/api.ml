(* Every simulated load and store runs [read] or [write], the simulator's
   innermost loop: perfbench's sor-lrc16 makes about 63M accesses, of
   which some 26k fault. An access to a page the node can already use
   (its entry exists, has a copy and has the protection the access needs)
   makes no call at all. That holds under the dev profile's [-opaque]
   too, where a call into another module is a real call that boxes its
   float arguments and results, so the hit path is written out here:

   - [ctx] caches what an access touches, all immutable for a run: the
     node's page table, its clock record and its time breakdown (all-float
     records, so a bump stores unboxed), and the charge for one access,
     [mem_access *. slowdown].
   - [Mem.Page_table.t] and [Mem.Layout.t] are private records, so the hit
     path reads [npages], [entries], [shift] and [mask] as fields.
   - [charge] is the one compute charge, for accesses, [compute] and
     [idle_until] alike.
   - [store] is the one store: the word, the written-word log's append
     ([Mem.Page_table.entry] documents the log) and the AURC mirror.

   So a hit is a charge, a bounds check, a load of the entry and a match
   on its protection and copy, then the load or [store]. The offset is
   valid by construction ([addr land mask] < page_words, the length of
   every page buffer). Every other access calls [read_slow] or
   [write_slow], never inlined, which create the entry if need be and
   perform the fault effects. A fault re-checks protection and retries,
   like a restarted instruction: an interval can end (write-protecting the
   page again) between the fault handler finishing and this process
   resuming.

   The release profile inlines the hit paths, and [compute], into the
   applications as well, where a read's result or a write's value then
   need not be boxed. *)

type ctx = {
  sys : System.t;
  node : System.node_state;
  pt : Mem.Page_table.t;
  clocks : Machine.Node.clocks;
  breakdown : Stats.breakdown;
  shift : int;
  mask : int;
  access_cost : float;
}

let make_ctx sys (node : System.node_state) =
  let layout = sys.System.layout in
  {
    sys;
    node;
    pt = node.System.pt;
    clocks = node.System.mach.Machine.Node.ck;
    breakdown = node.System.stats.Stats.b;
    shift = layout.Mem.Layout.shift;
    mask = layout.Mem.Layout.mask;
    access_cost = (System.costs sys).Machine.Costs.mem_access *. node.System.slowdown;
  }

let pid ctx = ctx.node.System.id

let nprocs ctx = System.nprocs ctx.sys

let page_words ctx = ctx.mask + 1

let malloc ctx ?name ?home ?scratch words =
  System.malloc ctx.sys ctx.node ?name ?home_map:home ?scratch words

let root ctx name = System.root ctx.sys name

(* Processor work is stretched by the node's chaos straggler multiplier
   before it is charged ([access_cost] already is). Open-loop idle
   ([idle_until]) is not: a slow CPU does not make the wait for the wall
   clock longer. Both are billed to the compute bucket. *)
let[@inline] charge ctx dt =
  let ck = ctx.clocks in
  ck.Machine.Node.clock <- ck.Machine.Node.clock +. dt;
  let b = ctx.breakdown in
  b.Stats.compute <- b.Stats.compute +. dt

(* [entries] has at least [npages] slots. [page >= 0] matters only for
   one-word pages: a shift of 0 leaves a negative address negative. *)
let[@inline] lookup ctx page =
  let pt = ctx.pt in
  if page >= 0 && page < pt.Mem.Page_table.npages then
    Array.unsafe_get pt.Mem.Page_table.entries page
  else None

let[@inline] store (e : Mem.Page_table.entry) data off value =
  Mem.Words.unsafe_set data off value;
  let free = e.log_free in
  if free > 0 then begin
    let free = free - 1 in
    Array.unsafe_set e.log free off;
    e.log_free <- free
  end;
  (* AURC automatic update: the store is snooped off the bus and performed
     on the home's master copy with no software overhead (paper 2.2). *)
  match e.mirror with
  | None -> ()
  | Some home_copy ->
      Mem.Words.unsafe_set home_copy off value;
      e.mirror_pending <- e.mirror_pending + 1

let[@inline never] read_slow ctx page addr =
  let entry = Mem.Page_table.ensure ctx.pt page in
  while entry.Mem.Page_table.prot = Mem.Page_table.No_access do
    Effect.perform (System.Read_fault_eff page)
  done;
  Mem.Words.unsafe_get (Mem.Page_table.data_exn entry) (addr land ctx.mask)

let[@inline never] write_slow ctx page addr value =
  let entry = Mem.Page_table.ensure ctx.pt page in
  while entry.Mem.Page_table.prot <> Mem.Page_table.Read_write do
    Effect.perform (System.Write_fault_eff page)
  done;
  store entry (Mem.Page_table.data_exn entry) (addr land ctx.mask) value

let[@inline] read ctx addr =
  charge ctx ctx.access_cost;
  let page = addr lsr ctx.shift in
  match lookup ctx page with
  | Some { Mem.Page_table.prot = Read_only | Read_write; data = Some data; _ } ->
      Mem.Words.unsafe_get data (addr land ctx.mask)
  | _ -> read_slow ctx page addr

let[@inline] write ctx addr value =
  charge ctx ctx.access_cost;
  let page = addr lsr ctx.shift in
  match lookup ctx page with
  | Some ({ Mem.Page_table.prot = Read_write; data = Some data; _ } as e) ->
      store e data (addr land ctx.mask) value
  | _ -> write_slow ctx page addr value

let read_int ctx addr = int_of_float (read ctx addr)

let write_int ctx addr value = write ctx addr (float_of_int value)

let lock _ctx id =
  if id < 0 then invalid_arg "lock: negative id";
  Effect.perform (System.Lock_eff id)

let unlock ctx id = Sync.release ctx.sys ctx.node id

let barrier _ctx = Effect.perform System.Barrier_eff

let[@inline] compute ctx us =
  if us < 0. then invalid_arg "compute: negative duration";
  charge ctx (us *. ctx.node.System.slowdown)

let start_timing ctx =
  let node = ctx.node in
  node.System.start_clock <- ctx.clocks.Machine.Node.clock;
  node.System.start_breakdown <- Stats.breakdown_copy ctx.breakdown;
  node.System.stats.Stats.c <- Stats.counters_zero ();
  Mem.Accounting.reset_peak node.System.stats.Stats.proto_mem

let now ctx = ctx.clocks.Machine.Node.clock

let idle_until ctx at =
  let t = now ctx in
  if at > t then charge ctx (at -. t)

let record_op ctx kind ~issued_at =
  let latency = now ctx -. issued_at in
  System.record_op ctx.sys kind ~latency:(max 0. latency)
