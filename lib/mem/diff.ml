(* Changed words as a bitmap of positions, one bit per word, and a flat
   array of the new values in ascending position order. The bitmap keeps
   only the bytes from the first changed word's to the last's; [first] is
   the page byte its byte 0 stands for. Positions cost one bit per word
   of the changed span because LRC keeps its diffs until the next GC: a
   SOR row's diff (511 of 1,024 words changed) takes ~535 words, about
   half of what an int array of positions would, and a kvstore put's
   one-word diff takes 9, one more than with the array. *)
type t = { page : int; first : int; mask : Bytes.t; values : float array }

let header_bytes = 16

let entry_bytes = 12 (* 4-byte offset + 8-byte word *)

(* Bit-wise float equality without boxing on the hot paths. [=] handles
   the two common cases for free: equal non-zero floats have equal bits
   (and NaN is never [=]), and ordinarily-unequal non-NaN floats have
   unequal bits. That leaves zeros, where [1. /. a] recovers the sign
   without going through [Int64.bits_of_float] (which boxes), and NaNs,
   where the old payload-exact comparison is kept (rare enough to box).

   It must be inlined into the loops that call it: without flambda a call
   with float arguments boxes both floats, which measured at ~10 minor
   words per compared word. *)
let[@inline always] same_bits a b =
  if a = b then a <> 0.0 || 1.0 /. a = 1.0 /. b
  else a <> a && b <> b && Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let word_count t = Array.length t.values

let size_bytes t = header_bytes + (entry_bytes * Array.length t.values)

let page t = t.page

(* Trailing zeros of each non-zero byte value: the position of its lowest
   set bit. *)
let ctz8 =
  String.init 256 (fun b ->
      let rec count i = if i = 8 || b land (1 lsl i) <> 0 then i else count (i + 1) in
      Char.chr (count 0))

(* [walk first mask f] calls [f k offset] for the [k]-th set bit of
   [mask], at word [offset], in ascending order. [create] and [apply]
   inline this loop rather than pay [f]'s call per word. *)
let walk first mask f =
  let k = ref 0 in
  for byte = 0 to Bytes.length mask - 1 do
    let bits = ref (Char.code (Bytes.unsafe_get mask byte)) in
    while !bits <> 0 do
      f !k (((first + byte) lsl 3) lor Char.code (String.unsafe_get ctz8 !bits));
      incr k;
      bits := !bits land (!bits - 1)
    done
  done

(* The diff whose positions are the set bits of [full], a bitmap of the
   whole page, trimmed to the bytes from its first non-zero one to its
   last. *)
let of_full ~page full values =
  let n = Bytes.length full in
  let lo = ref 0 and hi = ref n in
  while !lo < n && Bytes.unsafe_get full !lo = '\000' do
    incr lo
  done;
  while !hi > !lo && Bytes.unsafe_get full (!hi - 1) = '\000' do
    decr hi
  done;
  let mask = if !lo = 0 && !hi = n then full else Bytes.sub full !lo (!hi - !lo) in
  { page; first = !lo; mask; values }

(* Two passes: the first compares every word, marking changes in a
   whole-page bitmap and counting them; the second copies the marked words
   into an exactly-sized value array, so creation never builds an
   intermediate list and compares each word once. The bitmap is then
   trimmed to the changed span, a copy unless the span reaches both ends
   of the page. *)
let create ~page ~twin ~current =
  let n = Words.length current in
  if Words.length twin <> n then
    invalid_arg "Diff.create: twin and current differ in length";
  let mask = Bytes.make ((n + 7) lsr 3) '\000' in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if not (same_bits (Words.unsafe_get twin i) (Words.unsafe_get current i)) then begin
      let byte = i lsr 3 in
      Bytes.unsafe_set mask byte
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get mask byte) lor (1 lsl (i land 7))));
      incr count
    end
  done;
  let values = Array.make !count 0.0 in
  let k = ref 0 in
  for byte = 0 to Bytes.length mask - 1 do
    let bits = ref (Char.code (Bytes.unsafe_get mask byte)) in
    while !bits <> 0 do
      let offset = (byte lsl 3) lor Char.code (String.unsafe_get ctz8 !bits) in
      Array.unsafe_set values !k (Words.unsafe_get current offset);
      incr k;
      bits := !bits land (!bits - 1)
    done
  done;
  of_full ~page mask values

(* The diff of the words at offsets [log.(from)] to the log's last slot,
   sorted and distinct. It is [create]'s diff as long as every other word
   equals its twin: the same trimmed bitmap (an empty diff's [first] is the
   page's byte count, as there) and the same values. Slot [i]'s change is
   bit [i - from] of [hits]; the log has fewer slots than an int has
   bits. *)
let of_log ~page ~twin ~current log from =
  let n = Array.length log in
  let hits = ref 0 and count = ref 0 and lo = ref 0 and hi = ref 0 in
  for i = from to n - 1 do
    let offset = log.(i) in
    if not (same_bits (Words.get twin offset) (Words.get current offset)) then begin
      if !count = 0 then lo := offset;
      hi := offset;
      hits := !hits lor (1 lsl (i - from));
      incr count
    end
  done;
  if !count = 0 then
    { page; first = (Words.length current + 7) lsr 3; mask = Bytes.empty; values = [||] }
  else begin
    let first = !lo lsr 3 in
    let mask = Bytes.make ((!hi lsr 3) - first + 1) '\000' in
    let values = Array.make !count 0.0 in
    let k = ref 0 in
    for i = from to n - 1 do
      if !hits land (1 lsl (i - from)) <> 0 then begin
        let offset = log.(i) in
        let byte = (offset lsr 3) - first in
        Bytes.set mask byte
          (Char.unsafe_chr (Char.code (Bytes.get mask byte) lor (1 lsl (offset land 7))));
        values.(!k) <- Words.get current offset;
        incr k
      end
    done;
    { page; first; mask; values }
  end

let equal a b =
  a.page = b.page && a.first = b.first && Bytes.equal a.mask b.mask
  && Array.length a.values = Array.length b.values
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.values b.values

let of_entry ~check (e : Page_table.entry) =
  let page = e.page in
  let twin =
    match e.twin with
    | Some t -> t
    | None -> invalid_arg (Printf.sprintf "Diff.of_entry: page %d has no twin" page)
  in
  let current = Page_table.data_exn e in
  if e.log_free = 0 then create ~page ~twin ~current
  else begin
    let from = Page_table.compact_log e in
    let d = of_log ~page ~twin ~current e.log from in
    if check && not (equal d (create ~page ~twin ~current)) then
      failwith
        (Printf.sprintf "Diff.of_entry: page %d changed outside its written-word log" page);
    d
  end

let apply t data =
  let n = Words.length data in
  let first = t.first and mask = t.mask and values = t.values in
  let k = ref 0 in
  for byte = 0 to Bytes.length mask - 1 do
    let bits = ref (Char.code (Bytes.unsafe_get mask byte)) in
    while !bits <> 0 do
      let offset = ((first + byte) lsl 3) lor Char.code (String.unsafe_get ctz8 !bits) in
      if offset >= n then invalid_arg "Diff.apply: offset out of range";
      Words.unsafe_set data offset (Array.unsafe_get values !k);
      incr k;
      bits := !bits land (!bits - 1)
    done
  done

let is_empty t = Array.length t.values = 0

let iter f t = walk t.first t.mask (fun k offset -> f offset (Array.unsafe_get t.values k))
