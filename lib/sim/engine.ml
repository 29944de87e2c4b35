(* The pending events form a binary min-heap ordered by (time, push
   order), stored as parallel arrays of unboxed float times, int push
   sequence numbers and int slot ids. Equal times pop in push order, which
   is the determinism contract every golden trace rests on.

   The thunks live apart, in a slab indexed by slot id: [schedule] writes
   a thunk into a free slot once, and [step] reads it and resets the slot
   to [noop] once. A sift moves only ints and floats, so it passes no
   pointer through the write barrier. [slots] is a permutation of
   [0 .. capacity - 1]: positions below [size] are the heap's entries, and
   the positions from [size] on are the free slots, so the slot a pop
   frees is the next one a schedule takes.

   Nothing is allocated per event: [now] lives in a flat float array, so
   advancing the clock boxes nothing either. The heap is written out here
   rather than in a module of its own: the dev profile compiles with
   -opaque, so a call into another module would box every float key it
   passes or returns. For the same reason the sift loops compare times in
   place: a helper taking a float would box it. *)
type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable thunks : (unit -> unit) array;  (* by slot id *)
  mutable size : int;
  mutable next_seq : int;
  clock : float array;  (* [| now |] *)
  mutable executed : int;
}

(* Tolerance for float rounding when protocol code computes "now + cost" and
   the addition rounds just below the current time. *)
let epsilon = 1e-9

(* Fills free slots, so a popped thunk — and everything it captures — is
   not kept alive by the engine. *)
let noop () = ()

let create ?(capacity = 16) () =
  let capacity = Int.max 1 capacity in
  {
    times = Array.make capacity 0.;
    seqs = Array.make capacity 0;
    slots = Array.init capacity Fun.id;
    thunks = Array.make capacity noop;
    size = 0;
    next_seq = 0;
    clock = [| 0. |];
    executed = 0;
  }

let now t = t.clock.(0)

(* Called when every slot is taken: the new slots join the free positions
   past [size]. *)
let grow t =
  let old = Array.length t.times in
  let capacity = 2 * old in
  let times = Array.make capacity 0. in
  let seqs = Array.make capacity 0 in
  let slots = Array.init capacity Fun.id in
  let thunks = Array.make capacity noop in
  Array.blit t.times 0 times 0 old;
  Array.blit t.seqs 0 seqs 0 old;
  Array.blit t.slots 0 slots 0 old;
  Array.blit t.thunks 0 thunks 0 old;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.thunks <- thunks

let schedule t ~at f =
  let now = t.clock.(0) in
  if Float.is_nan at then invalid_arg "Engine.schedule: at is NaN";
  if at < now -. epsilon then
    invalid_arg (Printf.sprintf "Engine.schedule: at=%.9f is before now=%.9f" at now);
  let time = Float.max at now in
  if t.size = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = Array.unsafe_get slots t.size in
  Array.unsafe_set t.thunks slot f;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* Sift the hole up from the end. The new entry's sequence number is the
     largest in the heap, so it moves above a parent only on a strictly
     earlier time. *)
  let i = ref t.size in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let parent_time = Array.unsafe_get times parent in
    if time < parent_time then begin
      Array.unsafe_set times !i parent_time;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else moving := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot;
  t.size <- t.size + 1

(* Removes the root, sifts the last entry down from it, and parks the
   root's slot at the first free position. *)
let pop t =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let freed = Array.unsafe_get slots 0 in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let time = Array.unsafe_get times last and seq = Array.unsafe_get seqs last in
    let slot = Array.unsafe_get slots last in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let left = (2 * !i) + 1 in
      if left >= last then moving := false
      else begin
        let right = left + 1 in
        let child =
          if right < last then begin
            let tl = Array.unsafe_get times left and tr = Array.unsafe_get times right in
            if tr < tl || (tr = tl && Array.unsafe_get seqs right < Array.unsafe_get seqs left)
            then right
            else left
          end
          else left
        in
        let child_time = Array.unsafe_get times child in
        if child_time < time || (child_time = time && Array.unsafe_get seqs child < seq) then begin
          Array.unsafe_set times !i child_time;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs child);
          Array.unsafe_set slots !i (Array.unsafe_get slots child);
          i := child
        end
        else moving := false
      end
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i slot
  end;
  Array.unsafe_set slots last freed

let step t =
  if t.size = 0 then false
  else begin
    let time = Array.unsafe_get t.times 0 in
    let slot = Array.unsafe_get t.slots 0 in
    let event = Array.unsafe_get t.thunks slot in
    Array.unsafe_set t.thunks slot noop;
    pop t;
    t.clock.(0) <- time;
    t.executed <- t.executed + 1;
    event ();
    true
  end

let run t =
  while step t do
    ()
  done;
  now t

let pending t = t.size

let executed t = t.executed
