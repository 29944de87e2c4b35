type protection = No_access | Read_only | Read_write

type entry = {
  page : int;
  mutable data : Words.t;
  mutable prot : protection;
  mutable twin : Words.t option;
  mutable dirty : bool;
  mutable mirror : Words.t option;
  mutable mirror_pending : int;
  mutable log : int array;
  mutable log_free : int;
}

type t = { layout : Layout.t; mutable entries : entry array; mutable npages : int }

let no_copy = Words.make 0

let has_copy e = e.data != no_copy

let blank page =
  {
    page;
    data = no_copy;
    prot = No_access;
    twin = None;
    dirty = false;
    mirror = None;
    mirror_pending = 0;
    log = [||];
    log_free = 0;
  }

let no_entry = blank (-1)

let create layout = { layout; entries = [||]; npages = 0 }

let grow t page =
  let capacity = Array.length t.entries in
  if page >= capacity then begin
    let capacity' = max 64 (max (2 * capacity) (page + 1)) in
    let entries' = Array.make capacity' no_entry in
    Array.blit t.entries 0 entries' 0 capacity;
    t.entries <- entries'
  end;
  if page >= t.npages then t.npages <- page + 1

let ensure t page =
  grow t page;
  let e = t.entries.(page) in
  if e != no_entry then e
  else begin
    let e = blank page in
    t.entries.(page) <- e;
    e
  end

let find t page = if page < 0 || page >= t.npages then no_entry else t.entries.(page)

let entry t page =
  if page < 0 || page >= t.npages then
    invalid_arg (Printf.sprintf "Page_table.entry: page %d out of range" page)
  else
    let e = t.entries.(page) in
    if e == no_entry then invalid_arg (Printf.sprintf "Page_table.entry: page %d never touched" page)
    else e

let data_exn e =
  if has_copy e then e.data
  else invalid_arg (Printf.sprintf "Page_table.data_exn: page %d not cached" e.page)

(* The one writer of [prot]: [Svm.Api]'s hit path reads [data] on [prot]
   alone, so an accessible entry must hold a frame. *)
let protect e prot =
  if prot <> No_access && not (has_copy e) then
    invalid_arg (Printf.sprintf "Page_table.protect: page %d has no copy" e.page);
  e.prot <- prot

let attach_copy t e =
  let data = Words.make (Layout.page_words t.layout) in
  e.data <- data;
  data

let materialize t e =
  if has_copy e then e.data
  else begin
    let d = attach_copy t e in
    protect e Read_only;
    d
  end

let drop_copy e =
  protect e No_access;
  e.data <- no_copy

let open_copy e = protect e (if e.dirty then Read_write else Read_only)

let invalidate e =
  if e.prot = No_access then false
  else begin
    protect e No_access;
    true
  end

(* A kvstore put writes one or two words of a page; SOR writes hundreds.
   16 slots cover the first with room to spare and saturate early on the
   second, whose full scan is then the cheaper way to find the changes. *)
let log_capacity = 16

let retwin e = e.twin <- Some (Words.copy (data_exn e))

let make_twin e =
  retwin e;
  if Array.length e.log = 0 then e.log <- Array.make log_capacity 0;
  e.log_free <- log_capacity

let drop_twin e =
  e.twin <- None;
  e.log_free <- 0

(* Slots fill from the end down: [Svm.Api.write] stores an offset at slot
   [log_free - 1] and decrements it, so saturation is [log_free] reaching 0
   and a store on a saturated page pays one compare with a constant.

   Sorts the live slots and drops repeats, in place: the log keeps the same
   set of offsets, in fewer slots. Insertion sort, as the log holds at most
   a handful. *)
let compact_log e =
  let log = e.log and free = e.log_free in
  let n = Array.length log in
  for i = free + 1 to n - 1 do
    let x = log.(i) in
    let j = ref (i - 1) in
    while !j >= free && log.(!j) > x do
      log.(!j + 1) <- log.(!j);
      decr j
    done;
    log.(!j + 1) <- x
  done;
  if free < n then begin
    let top = ref (n - 1) in
    for i = n - 2 downto free do
      if log.(i) <> log.(!top) then begin
        decr top;
        log.(!top) <- log.(i)
      end
    done;
    e.log_free <- !top
  end;
  e.log_free

let iter t f =
  for page = 0 to t.npages - 1 do
    let e = t.entries.(page) in
    if e != no_entry then f e
  done
