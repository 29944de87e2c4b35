(* Changed words as parallel (offsets, values) arrays rather than an array
   of boxed (int * float) pairs: both arrays are flat (the float array is
   unboxed), so building a diff allocates exactly two blocks regardless of
   how many words changed. *)
type t = { page : int; offsets : int array; values : float array }

let header_bytes = 16

let entry_bytes = 12 (* 4-byte offset + 8-byte word *)

(* Bit-wise float equality without boxing on the hot paths. [=] handles
   the two common cases for free: equal non-zero floats have equal bits
   (and NaN is never [=]), and ordinarily-unequal non-NaN floats have
   unequal bits. That leaves zeros, where [1. /. a] recovers the sign
   without going through [Int64.bits_of_float] (which boxes), and NaNs,
   where the old payload-exact comparison is kept (rare enough to box).

   This comparison is written inline in [create]'s loops rather than as a
   helper: without flambda a call with float arguments boxes both floats,
   which measured at ~10 minor words per compared word. *)

let word_count t = Array.length t.offsets

let size_bytes t = header_bytes + (entry_bytes * Array.length t.offsets)

(* The typed event for a diff construction, for callers that observe the
   operation (the node and timestamp attribution live with the caller). *)
let created_event t = Obs.Trace.Diff_create { page = t.page; words = word_count t; bytes = size_bytes t }

(* Two passes — count, then fill exactly-sized arrays — so creation never
   builds an intermediate list. The counting pass also notes the last
   changed word, and the fill pass walks down from it and stops at the
   first, so it scans only the changed span: a sparse writer's page is
   read once rather than twice, while a dense writer's span is the whole
   page either way. *)
let create ~page ~twin ~current =
  let n = Words.length current in
  if Words.length twin <> n then
    invalid_arg "Diff.create: twin and current differ in length";
  let count = ref 0 and last = ref (-1) in
  for i = 0 to n - 1 do
    let a = Words.unsafe_get twin i and b = Words.unsafe_get current i in
    let same =
      if a = b then a <> 0.0 || 1.0 /. a = 1.0 /. b
      else a <> a && b <> b && Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
    in
    if not same then begin
      last := i;
      incr count
    end
  done;
  let offsets = Array.make !count 0 in
  let values = Array.make !count 0.0 in
  let j = ref (!count - 1) and i = ref !last in
  while !j >= 0 do
    let a = Words.unsafe_get twin !i and b = Words.unsafe_get current !i in
    let same =
      if a = b then a <> 0.0 || 1.0 /. a = 1.0 /. b
      else a <> a && b <> b && Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
    in
    if not same then begin
      Array.unsafe_set offsets !j !i;
      Array.unsafe_set values !j b;
      decr j
    end;
    decr i
  done;
  { page; offsets; values }

let apply ?obs t data =
  let n = Words.length data in
  for k = 0 to Array.length t.offsets - 1 do
    let offset = Array.unsafe_get t.offsets k in
    if offset < 0 || offset >= n then invalid_arg "Diff.apply: offset out of range";
    Words.unsafe_set data offset (Array.unsafe_get t.values k)
  done;
  match obs with
  | Some emit ->
      emit
        (Obs.Trace.Diff_apply { page = t.page; words = word_count t; bytes = size_bytes t })
  | None -> ()

let is_empty t = Array.length t.offsets = 0

let merge older newer =
  if older.page <> newer.page then invalid_arg "Diff.merge: different pages";
  (* Merge two sorted (by offset) entry sequences; the newer diff wins on
     overlap. Same two-pass shape as [create]: size first, then fill. *)
  let na = Array.length older.offsets and nb = Array.length newer.offsets in
  let overlap = ref 0 in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let oa = older.offsets.(!i) and ob = newer.offsets.(!j) in
    if oa < ob then incr i
    else if ob < oa then incr j
    else begin
      incr overlap;
      incr i;
      incr j
    end
  done;
  let n = na + nb - !overlap in
  let offsets = Array.make n 0 in
  let values = Array.make n 0.0 in
  let k = ref 0 in
  let put offset value =
    offsets.(!k) <- offset;
    values.(!k) <- value;
    incr k
  in
  i := 0;
  j := 0;
  while !i < na || !j < nb do
    if !i >= na then begin
      put newer.offsets.(!j) newer.values.(!j);
      incr j
    end
    else if !j >= nb then begin
      put older.offsets.(!i) older.values.(!i);
      incr i
    end
    else begin
      let oa = older.offsets.(!i) and ob = newer.offsets.(!j) in
      if oa < ob then begin
        put oa older.values.(!i);
        incr i
      end
      else if ob < oa then begin
        put ob newer.values.(!j);
        incr j
      end
      else begin
        put ob newer.values.(!j);
        incr i;
        incr j
      end
    end
  done;
  { page = older.page; offsets; values }

let iter f t =
  for k = 0 to Array.length t.offsets - 1 do
    f (Array.unsafe_get t.offsets k) (Array.unsafe_get t.values k)
  done

let pp ppf t =
  Format.fprintf ppf "@[<h>diff(page %d: %d words)@]" t.page (Array.length t.offsets)
