(* The pending events form a binary min-heap ordered by (time, push
   order), stored as parallel arrays: unboxed float times, int push
   sequence numbers and the thunks. Equal times pop in push order, which
   is the determinism contract every golden trace rests on. Nothing is
   allocated per event: [now] lives in a flat float array, so advancing
   the clock boxes nothing either.

   The heap is written out here rather than in a module of its own: the
   dev profile compiles with -opaque, so a call into another module would
   box every float key it passes or returns. For the same reason the
   sift loops compare times in place: a helper taking a float would box
   it. *)
type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable events : (unit -> unit) array;
  mutable size : int;
  mutable next_seq : int;
  clock : float array;  (* [| now |] *)
  mutable executed : int;
}

(* Tolerance for float rounding when protocol code computes "now + cost" and
   the addition rounds just below the current time. *)
let epsilon = 1e-9

(* Fills vacated slots, so a popped thunk — and everything it captures —
   is not kept alive by the heap. *)
let noop () = ()

let create ?(capacity = 16) () =
  let capacity = max 1 capacity in
  {
    times = Array.make capacity 0.;
    seqs = Array.make capacity 0;
    events = Array.make capacity noop;
    size = 0;
    next_seq = 0;
    clock = [| 0. |];
    executed = 0;
  }

let now t = t.clock.(0)

let grow t =
  let capacity = 2 * Array.length t.times in
  let times = Array.make capacity 0. in
  let seqs = Array.make capacity 0 in
  let events = Array.make capacity noop in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.events 0 events 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.events <- events

let schedule t ~at f =
  let now = t.clock.(0) in
  if Float.is_nan at then invalid_arg "Engine.schedule: at is NaN";
  if at < now -. epsilon then
    invalid_arg (Printf.sprintf "Engine.schedule: at=%.9f is before now=%.9f" at now);
  let time = Float.max at now in
  if t.size = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and events = t.events in
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
      Array.unsafe_set events !i (Array.unsafe_get events parent);
      i := parent
    end
    else moving := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set events !i f;
  t.size <- t.size + 1

(* Removes the root and sifts the last entry down from it. *)
let pop t =
  let times = t.times and seqs = t.seqs and events = t.events in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let time = Array.unsafe_get times last and seq = Array.unsafe_get seqs last in
    let event = Array.unsafe_get events last in
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
          Array.unsafe_set events !i (Array.unsafe_get events child);
          i := child
        end
        else moving := false
      end
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set events !i event
  end;
  Array.unsafe_set events last noop

let step t =
  if t.size = 0 then false
  else begin
    let time = Array.unsafe_get t.times 0 in
    let event = Array.unsafe_get t.events 0 in
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
