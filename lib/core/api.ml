type ctx = {
  sys : System.t;
  node : System.node_state;
  shift : int;
  mask : int;
  access_cost : float;
}

let make_ctx sys (node : System.node_state) =
  let layout = sys.System.layout in
  let page_words = Mem.Layout.page_words layout in
  let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
  {
    sys;
    node;
    shift = log2 page_words 0;
    mask = page_words - 1;
    access_cost = (System.costs sys).Machine.Costs.mem_access;
  }

let pid ctx = ctx.node.System.id

let nprocs ctx = System.nprocs ctx.sys

let page_words ctx = ctx.mask + 1

let malloc ctx ?name ?home ?scratch words =
  System.malloc ctx.sys ctx.node ?name ?home_map:home ?scratch words

let root ctx name = System.root ctx.sys name

(* Faults re-check protection and retry, like a restarted instruction: an
   interval can end (write-protecting the page again) between the fault
   handler finishing and this process resuming.

   These two functions are the simulator's innermost loop — once per
   simulated load/store — so they are written to allocate (almost)
   nothing: the charge bumps all-float records, the page word lives in a
   Bigarray (direct load/store, no boxing), and the offset is validated by
   construction ([addr land mask] < page_words = the length every page
   buffer is allocated with). The only allocation left is boxing [read]'s
   float result for the caller.

   [write] then appends the store's offset to the page's written-word log
   (the one append; [Mem.Page_table.entry] documents the layout). It is
   written out here because the dev profile's [-opaque] would make a call
   into [Mem] a real call: on a saturated page (every page without a twin,
   and every page whose log has filled) the log costs one load and one
   compare with 0. *)
let read ctx addr =
  System.charge_compute ctx.node ctx.access_cost;
  let page = addr lsr ctx.shift in
  let entry = Mem.Page_table.ensure ctx.node.System.pt page in
  while entry.Mem.Page_table.prot = Mem.Page_table.No_access do
    Effect.perform (System.Read_fault_eff page)
  done;
  Mem.Words.unsafe_get (Mem.Page_table.data_exn entry) (addr land ctx.mask)

let write ctx addr value =
  System.charge_compute ctx.node ctx.access_cost;
  let page = addr lsr ctx.shift in
  let entry = Mem.Page_table.ensure ctx.node.System.pt page in
  while entry.Mem.Page_table.prot <> Mem.Page_table.Read_write do
    Effect.perform (System.Write_fault_eff page)
  done;
  let off = addr land ctx.mask in
  Mem.Words.unsafe_set (Mem.Page_table.data_exn entry) off value;
  let free = entry.Mem.Page_table.log_free in
  if free > 0 then begin
    let free = free - 1 in
    Array.unsafe_set entry.Mem.Page_table.log free off;
    entry.Mem.Page_table.log_free <- free
  end;
  (* AURC automatic update: the store is snooped off the bus and performed
     on the home's master copy with no software overhead (paper 2.2). *)
  match entry.Mem.Page_table.mirror with
  | None -> ()
  | Some home_copy ->
      Mem.Words.unsafe_set home_copy off value;
      entry.Mem.Page_table.mirror_pending <- entry.Mem.Page_table.mirror_pending + 1

let read_int ctx addr = int_of_float (read ctx addr)

let write_int ctx addr value = write ctx addr (float_of_int value)

let lock _ctx id =
  if id < 0 then invalid_arg "lock: negative id";
  Effect.perform (System.Lock_eff id)

let unlock ctx id = Sync.release ctx.sys ctx.node id

let barrier _ctx = Effect.perform System.Barrier_eff

let compute ctx us =
  if us < 0. then invalid_arg "compute: negative duration";
  System.charge_compute ctx.node us

let start_timing ctx =
  let node = ctx.node in
  node.System.start_clock <- node.System.mach.Machine.Node.ck.Machine.Node.clock;
  node.System.start_breakdown <- Stats.breakdown_copy node.System.stats.Stats.b;
  node.System.stats.Stats.c <- Stats.counters_zero ();
  Mem.Accounting.reset_peak node.System.stats.Stats.proto_mem

let now ctx = ctx.node.System.mach.Machine.Node.ck.Machine.Node.clock

let idle_until ctx at =
  let t = now ctx in
  if at > t then System.charge_idle ctx.node (at -. t)

let record_op ctx kind ~issued_at =
  let latency = now ctx -. issued_at in
  System.record_op ctx.sys kind ~latency:(max 0. latency)
