(* Unit and property tests for the memory substrate: layout, diffs, page
   tables and accounting. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Layout *)

let test_layout_basics () =
  let l = Mem.Layout.create ~page_words:1024 in
  check Alcotest.int "page words" 1024 (Mem.Layout.page_words l);
  check Alcotest.int "page bytes" 8192 (Mem.Layout.page_bytes l);
  check Alcotest.int "page of 0" 0 (Mem.Layout.page_of_addr l 0);
  check Alcotest.int "page of 1023" 0 (Mem.Layout.page_of_addr l 1023);
  check Alcotest.int "page of 1024" 1 (Mem.Layout.page_of_addr l 1024);
  check Alcotest.int "offset" 5 (Mem.Layout.offset_of_addr l 1029);
  check Alcotest.int "base of page 3" 3072 (Mem.Layout.base_of_page l 3)

let test_layout_pages_for () =
  let l = Mem.Layout.create ~page_words:256 in
  check Alcotest.int "exact fit" 1 (Mem.Layout.pages_for l 256);
  check Alcotest.int "one more" 2 (Mem.Layout.pages_for l 257);
  check Alcotest.int "zero" 0 (Mem.Layout.pages_for l 0)

let test_layout_rejects_non_power () =
  Alcotest.check_raises "non power of two" (Invalid_argument
    "Layout.create: page_words must be a positive power of two")
    (fun () -> ignore (Mem.Layout.create ~page_words:1000))

let prop_layout_roundtrip =
  QCheck.Test.make ~name:"layout addr = base + offset" ~count:300
    QCheck.(pair (int_range 0 7) (int_range 0 1_000_000))
    (fun (shift, addr) ->
      let page_words = 64 lsl shift in
      let l = Mem.Layout.create ~page_words in
      let page = Mem.Layout.page_of_addr l addr in
      let off = Mem.Layout.offset_of_addr l addr in
      Mem.Layout.base_of_page l page + off = addr && off >= 0 && off < page_words)

(* ------------------------------------------------------------------ *)
(* Diff *)

let mk_page f = Mem.Words.of_array (Array.init 64 f)

(* Page 7 of a node with a copy of [base] and a twin of it, after
   [stores] made through [Svm.Api.write], which logs each one. A [None]
   store writes the word's current value back. Halfway through, a diff is
   taken and discarded, as [Svm.Faults.install_copy] takes one, so the
   later stores append to a log that was compacted in place. *)
let logged_entry base stores =
  let page_words = Array.length base in
  let sys = Svm.System.create (Svm.Config.make ~page_words ~nprocs:1 Svm.Config.Hlrc) in
  let node = sys.Svm.System.nodes.(0) in
  let ctx = Svm.Api.make_ctx sys node in
  let e = Mem.Page_table.ensure node.Svm.System.pt 7 in
  let data = Mem.Page_table.attach_copy node.Svm.System.pt e in
  Mem.Words.blit ~src:(Mem.Words.of_array base) ~dst:data;
  e.Mem.Page_table.prot <- Mem.Page_table.Read_write;
  Mem.Page_table.make_twin e;
  List.iteri
    (fun i (offset, value) ->
      if i = List.length stores / 2 then ignore (Mem.Diff.of_entry ~check:false e);
      Svm.Api.write ctx ((7 * page_words) + offset)
        (Option.value value ~default:(Mem.Words.get data offset)))
    stores;
  e

let test_diff_roundtrip () =
  let twin = mk_page float_of_int in
  let current = Mem.Words.copy twin in
  Mem.Words.set current 3 99.;
  Mem.Words.set current 17 (-1.);
  let d = Mem.Diff.create ~page:0 ~twin ~current in
  check Alcotest.int "two words changed" 2 (Mem.Diff.word_count d);
  let target = Mem.Words.copy twin in
  Mem.Diff.apply d target;
  check Alcotest.bool "apply reproduces current" true
    (Mem.Words.to_array target = Mem.Words.to_array current)

let test_diff_empty () =
  let twin = mk_page float_of_int in
  let d = Mem.Diff.create ~page:0 ~twin ~current:(Mem.Words.copy twin) in
  check Alcotest.bool "empty" true (Mem.Diff.is_empty d);
  check Alcotest.int "size is header only" 16 (Mem.Diff.size_bytes d)

let test_diff_bitwise_semantics () =
  (* Writing the same bit pattern is not a change; 0.0 vs -0.0 is. *)
  let twin = Mem.Words.make 4 in
  let current = Mem.Words.copy twin in
  Mem.Words.set current 0 0.0;
  Mem.Words.set current 1 (-0.0);
  let d = Mem.Diff.create ~page:0 ~twin ~current in
  check Alcotest.int "only -0.0 differs" 1 (Mem.Diff.word_count d)

let test_diff_length_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Diff.create: twin and current differ in length") (fun () ->
      ignore (Mem.Diff.create ~page:0 ~twin:(Mem.Words.make 3) ~current:(Mem.Words.make 4)))

let diff_gen =
  (* random sparse modification of a 64-word page *)
  QCheck.Gen.(
    list_size (int_bound 20) (pair (int_bound 63) (float_range (-100.) 100.)))

let apply_writes base writes =
  let c = Mem.Words.copy base in
  List.iter (fun (i, v) -> Mem.Words.set c i v) writes;
  c

let prop_diff_apply_equals_writes =
  QCheck.Test.make ~name:"diff apply == replaying the writes" ~count:300
    (QCheck.make diff_gen) (fun writes ->
      let twin = mk_page float_of_int in
      let current = apply_writes twin writes in
      let d = Mem.Diff.create ~page:0 ~twin ~current in
      let target = Mem.Words.copy twin in
      Mem.Diff.apply d target;
      Mem.Words.to_array target = Mem.Words.to_array current)

let prop_diff_offsets_sorted =
  QCheck.Test.make ~name:"diff offsets strictly increasing" ~count:300
    (QCheck.make diff_gen) (fun writes ->
      let twin = mk_page float_of_int in
      let current = apply_writes twin writes in
      let d = Mem.Diff.create ~page:0 ~twin ~current in
      let offsets = ref [] in
      Mem.Diff.iter (fun o _ -> offsets := o :: !offsets) d;
      let offsets = List.rev !offsets in
      List.sort_uniq compare offsets = offsets)

(* A SOR row after one red-black half-sweep: every other interior word of
   a 1,024-word page changed, 511 in all. Positions as an int array cost
   512 words on top of the 512-word value array; as a bitmap, 18. *)
let test_diff_stride2_allocation () =
  let twin = Mem.Words.of_array (Array.init 1024 float_of_int) in
  let current = Mem.Words.copy twin in
  for i = 0 to 510 do
    Mem.Words.set current ((2 * i) + 1) 0.5
  done;
  let allocated_words f =
    let before = Gc.allocated_bytes () in
    f ();
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  let overhead = allocated_words (fun () -> ()) in
  let d = ref None in
  let words = allocated_words (fun () -> d := Some (Mem.Diff.create ~page:0 ~twin ~current)) in
  check Alcotest.int "511 words changed" 511 (Mem.Diff.word_count (Option.get !d));
  check Alcotest.bool
    (Printf.sprintf "at most 600 words allocated (%.0f)" (words -. overhead))
    true
    (words -. overhead <= 600.)

(* What a diff keeps alive, headers included: the bitmap covers only the
   changed span, so a one-word diff (a kvstore put's shape) costs 9 words,
   one more than with an int array of positions, whether it is found by a
   full scan or through the written-word log, and the stride-2 diff about
   half of what the array cost. *)
let test_diff_retained_words () =
  let twin = Mem.Words.of_array (Array.init 1024 float_of_int) in
  let retained f =
    let current = Mem.Words.copy twin in
    f current;
    Obj.reachable_words (Obj.repr (Mem.Diff.create ~page:0 ~twin ~current))
  in
  let one_word = retained (fun c -> Mem.Words.set c 500 0.5) in
  check Alcotest.bool (Printf.sprintf "one-word diff at most 9 words (%d)" one_word) true
    (one_word <= 9);
  let logged =
    Mem.Diff.of_entry ~check:false
      (logged_entry (Mem.Words.to_array twin) [ (500, Some 0.5) ])
  in
  check Alcotest.int "logged one-word diff's one word" 1 (Mem.Diff.word_count logged);
  let logged_words = Obj.reachable_words (Obj.repr logged) in
  check Alcotest.bool
    (Printf.sprintf "logged one-word diff at most 9 words (%d)" logged_words)
    true (logged_words <= 9);
  let stride2 =
    retained (fun c ->
        for i = 0 to 510 do
          Mem.Words.set c ((2 * i) + 1) 0.5
        done)
  in
  check Alcotest.bool (Printf.sprintf "stride-2 diff at most 540 words (%d)" stride2) true
    (stride2 <= 540)

(* ------------------------------------------------------------------ *)
(* Old-vs-new diff equivalence.

   The Bigarray rewrite must be observationally identical to the original
   float-array implementation. [Ref] below *is* that implementation
   (boxed (offset, value) pairs, Int64 bit comparison, list-building
   create), preserved as an executable specification; the properties
   drive both over pages that include the nasty float cases — +0.0 /
   -0.0, NaN (bit-compared), infinities — and require the same entries,
   the same wire size and the same applied result. *)

module Ref = struct
  type t = { page : int; words : (int * float) array }

  let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  let create ~page ~twin ~current =
    let changed = ref [] in
    for i = Array.length current - 1 downto 0 do
      if not (same_bits twin.(i) current.(i)) then changed := (i, current.(i)) :: !changed
    done;
    { page; words = Array.of_list !changed }

  let apply t data = Array.iter (fun (o, v) -> data.(o) <- v) t.words

  let size_bytes t = 16 + (12 * Array.length t.words)
end

(* Entries as (offset, bits) lists: NaN-safe structural comparison. *)
let entries_new d =
  let acc = ref [] in
  Mem.Diff.iter (fun o v -> acc := (o, Int64.bits_of_float v) :: !acc) d;
  List.rev !acc

let entries_ref (d : Ref.t) =
  Array.to_list (Array.map (fun (o, v) -> (o, Int64.bits_of_float v)) d.Ref.words)

(* Word values stressing bit-equality: zeros of both signs, NaN,
   infinities, plus ordinary magnitudes. *)
let word_gen =
  QCheck.Gen.(
    frequency
      [
        (2, oneofl [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 1.0 ]);
        (5, float_range (-100.) 100.);
      ])

let page_gen n = QCheck.Gen.(array_size (return n) word_gen)

let pair_gen n = QCheck.Gen.pair (page_gen n) (page_gen n)

let quiet_nan payload = Int64.float_of_bits (Int64.logor 0x7FF8_0000_0000_0000L payload)

(* A twin and a copy of it with 0-3 edits, on a full 1,024-word page: the
   changed span is empty, one word, or bounded by the page's edges, which
   the offsets favour. Each edit sets the twin's and the copy's word to a
   pair that may differ only in a zero's sign or a NaN's payload. *)
let sparse_pair_gen =
  let n = 1024 in
  let edit =
    QCheck.Gen.(
      pair
        (frequency [ (1, return 0); (1, return (n - 1)); (3, int_bound (n - 1)) ])
        (oneof
           [
             pair word_gen word_gen;
             oneofl [ (0.0, -0.0); (-0.0, 0.0) ];
             map2
               (fun a b -> (quiet_nan (Int64.of_int a), quiet_nan (Int64.of_int b)))
               (int_bound 2) (int_bound 2);
           ]))
  in
  QCheck.Gen.(
    map2
      (fun base edits ->
        let twin = Array.copy base and current = Array.copy base in
        List.iter
          (fun (o, (a, b)) ->
            twin.(o) <- a;
            current.(o) <- b)
          edits;
        (twin, current))
      (page_gen n)
      (list_size (int_bound 3) edit))

(* A twin and a copy whose last word differs from it, so the bitmap's
   final bit is set, on pages of 8 to 1,024 words and on one of 13, whose
   bitmap ends in a partial byte. *)
let last_word_pair_gen =
  QCheck.Gen.(
    oneofl [ 8; 13; 16; 32; 1024 ] >>= fun n ->
    map
      (fun (twin, current) ->
        current.(n - 1) <- (if twin.(n - 1) = 1.0 then 2.0 else 1.0);
        (twin, current))
      (pair_gen n))

(* A page and up to 40 stores to it, past the log's 16 slots, most of
   them to its first 8 words, so offsets repeat. Those words start as
   zeros of either sign or NaNs of three payloads, and a store writes one
   of those, an ordinary value, or the word's current value back. *)
let logged_gen =
  let n = 1024 in
  let special = QCheck.Gen.oneofl (0.0 :: -0.0 :: List.map quiet_nan [ 0L; 1L; 2L ]) in
  let store =
    QCheck.Gen.(
      pair
        (frequency [ (4, int_bound 7); (1, return (n - 1)); (1, int_bound (n - 1)) ])
        (frequency [ (1, return None); (2, map Option.some special); (2, map Option.some word_gen) ]))
  in
  QCheck.Gen.(
    map3
      (fun page head stores ->
        Array.blit head 0 page 0 8;
        `Logged (page, stores))
      (page_gen n)
      (array_size (return 8) special)
      (list_size (int_bound 40) store))

(* On a logged input the diff is also taken through the written-word log,
   and must equal the full scan's. *)
let prop_diff_matches_reference =
  QCheck.Test.make ~name:"bigarray diff == array-backed reference" ~count:600
    (QCheck.make
       (QCheck.Gen.oneof
          (logged_gen
          :: List.map
               (QCheck.Gen.map (fun p -> `Pair p))
               [ pair_gen 8; pair_gen 16; pair_gen 32; sparse_pair_gen; last_word_pair_gen ])))
    (fun input ->
      let a, b, logged =
        match input with
        | `Pair (a, b) -> (a, b, None)
        | `Logged (base, stores) ->
            let e = logged_entry base stores in
            ( base,
              Mem.Words.to_array (Mem.Page_table.data_exn e),
              Some (Mem.Diff.of_entry ~check:false e) )
      in
      let d_new = Mem.Diff.create ~page:7 ~twin:(Mem.Words.of_array a) ~current:(Mem.Words.of_array b) in
      let d_ref = Ref.create ~page:7 ~twin:a ~current:b in
      entries_new d_new = entries_ref d_ref
      && Mem.Diff.size_bytes d_new = Ref.size_bytes d_ref
      && (match logged with
         | None -> true
         | Some d ->
             entries_new d = entries_new d_new
             && Mem.Diff.size_bytes d = Mem.Diff.size_bytes d_new)
      &&
      (* applying both to a third page gives bit-identical results *)
      let base = Array.map (fun v -> v +. 0.5) a in
      let t_new = Mem.Words.of_array base in
      Mem.Diff.apply d_new t_new;
      let t_ref = Array.copy base in
      Ref.apply d_ref t_ref;
      Array.to_list (Array.map Int64.bits_of_float (Mem.Words.to_array t_new))
      = Array.to_list (Array.map Int64.bits_of_float t_ref))

(* ------------------------------------------------------------------ *)
(* Recycled frames *)

let test_free_list_recycles () =
  let fl = Mem.Words.free_list ~poison:true in
  let frame = Mem.Words.take fl (Mem.Words.of_array [| 1.; 2.; 3. |]) in
  Mem.Words.release fl frame;
  check Alcotest.bool "released frame is poisoned" true (Float.is_nan (Mem.Words.get frame 0));
  Alcotest.check_raises "double release" (Invalid_argument "Words.release: frame is already free")
    (fun () -> Mem.Words.release fl frame);
  let src = Mem.Words.of_array [| 4.; 5.; 6. |] in
  let reused = Mem.Words.take fl src in
  check Alcotest.bool "next take returns the released frame" true (reused == frame);
  check Alcotest.(array (float 0.)) "with the new contents" [| 4.; 5.; 6. |]
    (Mem.Words.to_array reused);
  check Alcotest.bool "an empty list allocates" true (Mem.Words.take fl src != frame)

(* ------------------------------------------------------------------ *)
(* Page table *)

let test_page_table_ensure () =
  let l = Mem.Layout.create ~page_words:64 in
  let pt = Mem.Page_table.create l in
  let e = Mem.Page_table.ensure pt 5 in
  check Alcotest.int "page id" 5 e.Mem.Page_table.page;
  check Alcotest.bool "uncached" true (e.Mem.Page_table.data = None);
  check Alcotest.bool "same entry" true (e == Mem.Page_table.ensure pt 5);
  check Alcotest.int "npages" 6 pt.Mem.Page_table.npages

let test_page_table_entry_missing () =
  let l = Mem.Layout.create ~page_words:64 in
  let pt = Mem.Page_table.create l in
  Alcotest.check_raises "never touched"
    (Invalid_argument "Page_table.entry: page 0 out of range") (fun () ->
      ignore (Mem.Page_table.entry pt 0))

let test_page_table_twin () =
  let l = Mem.Layout.create ~page_words:8 in
  let pt = Mem.Page_table.create l in
  let e = Mem.Page_table.ensure pt 0 in
  let data = Mem.Page_table.attach_copy pt e in
  Mem.Words.set data 0 7.;
  Mem.Page_table.make_twin e;
  Mem.Words.set data 0 8.;
  (match e.Mem.Page_table.twin with
  | Some t -> check (Alcotest.float 0.) "twin keeps old value" 7. (Mem.Words.get t 0)
  | None -> Alcotest.fail "twin missing");
  Mem.Page_table.drop_twin e;
  check Alcotest.bool "twin dropped" true (e.Mem.Page_table.twin = None)

let test_page_table_cached_pages () =
  let l = Mem.Layout.create ~page_words:8 in
  let pt = Mem.Page_table.create l in
  ignore (Mem.Page_table.ensure pt 0);
  let e1 = Mem.Page_table.ensure pt 1 in
  ignore (Mem.Page_table.attach_copy pt e1);
  let cached = Mem.Page_table.cached_pages pt in
  check Alcotest.(list int) "only cached" [ 1 ]
    (List.map (fun e -> e.Mem.Page_table.page) cached)

(* ------------------------------------------------------------------ *)
(* Accounting *)

let test_accounting () =
  let a = Mem.Accounting.create () in
  Mem.Accounting.add a 100;
  Mem.Accounting.add a 50;
  check Alcotest.int "current" 150 (Mem.Accounting.current a);
  Mem.Accounting.sub a 120;
  check Alcotest.int "after sub" 30 (Mem.Accounting.current a);
  check Alcotest.int "peak" 150 (Mem.Accounting.peak a);
  Mem.Accounting.sub a 1000;
  check Alcotest.int "floor at zero" 0 (Mem.Accounting.current a);
  Mem.Accounting.reset a;
  check Alcotest.int "reset peak" 0 (Mem.Accounting.peak a)

let suite =
  [
    ("layout basics", `Quick, test_layout_basics);
    ("layout pages_for", `Quick, test_layout_pages_for);
    ("layout rejects non-power", `Quick, test_layout_rejects_non_power);
    QCheck_alcotest.to_alcotest prop_layout_roundtrip;
    ("diff roundtrip", `Quick, test_diff_roundtrip);
    ("diff empty", `Quick, test_diff_empty);
    ("diff bitwise semantics", `Quick, test_diff_bitwise_semantics);
    ("diff length mismatch", `Quick, test_diff_length_mismatch);
    QCheck_alcotest.to_alcotest prop_diff_apply_equals_writes;
    QCheck_alcotest.to_alcotest prop_diff_offsets_sorted;
    ("diff stride-2 allocation", `Quick, test_diff_stride2_allocation);
    ("diff retained words", `Quick, test_diff_retained_words);
    QCheck_alcotest.to_alcotest prop_diff_matches_reference;
    ("free list recycles frames", `Quick, test_free_list_recycles);
    ("page table ensure", `Quick, test_page_table_ensure);
    ("page table missing entry", `Quick, test_page_table_entry_missing);
    ("page table twin", `Quick, test_page_table_twin);
    ("page table cached pages", `Quick, test_page_table_cached_pages);
    ("accounting", `Quick, test_accounting);
  ]
