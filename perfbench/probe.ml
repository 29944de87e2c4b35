(* Fixed pieces of host work that gauge how fast the host runs right now.

   On a shared VM the same simulator run takes 15-60% longer for seconds to
   minutes at a time, while other tenants load the machine. The worker
   gauges the host's speed beside each measured run in two ways, and run.py
   expresses the run's host time at a fixed host speed with them. Neither
   uses anything from lib/, so no change to the simulator moves them.

   - [time] is timed just before and just after the run. It allocates as
     the simulator's events and messages do: short-lived tuples and
     closures, one in eight kept for a while in a ring, so that minor
     collections promote and the major GC has work.
   - [during] takes a short slice of random memory updates every 0.1 s of
     the run, from a timer signal, so it sees slow spells that start or end
     within the run. The slices allocate nothing.

   Over about 60 runs of each workload on that VM, the run-to-run deviation
   left after scaling was 8-13% with [time] alone, 4-8% with the slices
   alone and 5-9% with the geometric mean of the two, against 11-13%
   unscaled. Which gauge did better depended on the workload; the geometric
   mean was never far from the better one, and run.py uses it. *)

(* The 48-bit generator of java.util.Random. *)
let lcg s = ((s * 25214903917) + 11) land 0xFFFF_FFFF_FFFF

let allocation () =
  let ring = Array.make 50_000 [] in
  let s = ref 7 and sum = ref 0 in
  for i = 1 to 8_000_000 do
    s := lcg !s;
    let v = (i, !s lsr 16) in
    let f () = fst v + snd v in
    sum := !sum + f ();
    if i land 7 = 0 then ring.(i mod Array.length ring) <- [ v ]
  done;
  !sum

let sink = ref 0

(* Host seconds of one probe, from a compacted heap: a measured run leaves
   a large one, whose marking would otherwise fall into the probe after it.
   The probe's own garbage is collected too, so none of it is left for the
   run after it. *)
let time () =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  sink := !sink + allocation ();
  let t = Unix.gettimeofday () -. t0 in
  Gc.compact ();
  t

let cell_state = ref 1

let slice_times = Array.make 10_000 0.

let slices = ref 0

(* One slice, about 1.5 ms: 100k random updates of [cells]. *)
let slice (cells : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) =
  let t0 = Unix.gettimeofday () in
  let s = ref !cell_state in
  for _ = 1 to 100_000 do
    s := lcg !s;
    let i = (!s lsr 16) land (Bigarray.Array1.dim cells - 1) in
    cells.{i} <- cells.{i} + 1
  done;
  cell_state := !s;
  if !slices < Array.length slice_times then begin
    slice_times.(!slices) <- Unix.gettimeofday () -. t0;
    incr slices
  end

let every_s = 0.1

(* [f ()] and the host seconds of every slice taken while it ran. The
   slices' time is part of [f]'s. The OCaml runtime counts about half a word
   of allocation per signal it delivers, so [f]'s allocation counts read
   about 10 words high per second of [f]. The slices update 8 MB, more than
   the processor's caches hold close to it, outside the OCaml heap so that
   the GC neither scans it nor paces itself by it; it adds 8 MB to the
   process's resident size. *)
let during f =
  let cells = Bigarray.(Array1.create int c_layout (1 lsl 20)) in
  Bigarray.Array1.fill cells 0;
  slices := 0;
  let timer it =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = it; it_value = it })
  in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> slice cells));
  timer every_s;
  let r = Fun.protect f ~finally:(fun () -> timer 0.) in
  (r, Array.to_list (Array.sub slice_times 0 !slices))
