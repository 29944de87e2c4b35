type breakdown = {
  mutable compute : float;
  mutable data : float;
  mutable lock : float;
  mutable barrier : float;
  mutable protocol : float;
  mutable gc : float;
}

let breakdown_zero () =
  { compute = 0.; data = 0.; lock = 0.; barrier = 0.; protocol = 0.; gc = 0. }

let breakdown_copy b =
  {
    compute = b.compute;
    data = b.data;
    lock = b.lock;
    barrier = b.barrier;
    protocol = b.protocol;
    gc = b.gc;
  }

let breakdown_sub a b =
  {
    compute = a.compute -. b.compute;
    data = a.data -. b.data;
    lock = a.lock -. b.lock;
    barrier = a.barrier -. b.barrier;
    protocol = a.protocol -. b.protocol;
    gc = a.gc -. b.gc;
  }

let breakdown_total b = b.compute +. b.data +. b.lock +. b.barrier +. b.protocol +. b.gc

type counters = {
  mutable read_misses : int;
  mutable write_faults : int;
  mutable diffs_created : int;
  mutable diffs_applied : int;
  mutable lock_acquires : int;
  mutable remote_acquires : int;
  mutable barriers : int;
  mutable messages : int;
  mutable update_bytes : int;
  mutable protocol_bytes : int;
  mutable page_fetches : int;
  mutable gc_runs : int;
  mutable home_migrations : int;
  mutable msg_drops : int;
  mutable msg_retransmits : int;
  mutable msg_acks : int;
  mutable msg_dup_dropped : int;
  mutable batch_prefetches : int;
  mutable repl_updates : int;
  mutable repl_invals : int;
  mutable repl_bytes : int;
  mutable failovers : int;
  mutable msg_peer_dead : int;
  mutable msg_gave_up : int;
  mutable suspicions : int;
  mutable refutations : int;
  mutable fenced_fetches : int;
}

let counters_zero () =
  {
    read_misses = 0;
    write_faults = 0;
    diffs_created = 0;
    diffs_applied = 0;
    lock_acquires = 0;
    remote_acquires = 0;
    barriers = 0;
    messages = 0;
    update_bytes = 0;
    protocol_bytes = 0;
    page_fetches = 0;
    gc_runs = 0;
    home_migrations = 0;
    msg_drops = 0;
    msg_retransmits = 0;
    msg_acks = 0;
    msg_dup_dropped = 0;
    batch_prefetches = 0;
    repl_updates = 0;
    repl_invals = 0;
    repl_bytes = 0;
    failovers = 0;
    msg_peer_dead = 0;
    msg_gave_up = 0;
    suspicions = 0;
    refutations = 0;
    fenced_fetches = 0;
  }

type t = {
  b : breakdown;
  mutable c : counters;
  proto_mem : Mem.Accounting.t;
  mutable epochs : breakdown list;
}

let create () =
  {
    b = breakdown_zero ();
    c = counters_zero ();
    proto_mem = Mem.Accounting.create ();
    epochs = [];
  }

let mark_epoch t = t.epochs <- breakdown_copy t.b :: t.epochs

let epoch_deltas t =
  let snaps = List.rev t.epochs in
  let rec deltas prev = function
    | [] -> []
    | snap :: rest -> breakdown_sub snap prev :: deltas snap rest
  in
  deltas (breakdown_zero ()) snaps

(* Nearest-rank quantile: the smallest element with cumulative rank >=
   ceil (p * n), i.e. sorted.(ceil (p*n) - 1) with the index clamped into
   [0, n-1]. No interpolation: the result is always an observed value, and
   p = 1.0 is the maximum. None on the empty array — an absent sample set
   must stay distinguishable from a genuine 0-valued one. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then None
  else
    Some sorted.(min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))

let pp_breakdown ppf b =
  Format.fprintf ppf
    "@[<h>compute=%.0f data=%.0f lock=%.0f barrier=%.0f proto=%.0f gc=%.0f@]"
    b.compute b.data b.lock b.barrier b.protocol b.gc
