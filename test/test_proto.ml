(* Unit and property tests for vector timestamps and interval records. *)

let check = Alcotest.check

let vt_of_list xs =
  let vt = Proto.Vclock.create ~nprocs:(List.length xs) in
  List.iteri (fun i x -> Proto.Vclock.set vt i x) xs;
  vt

(* ------------------------------------------------------------------ *)
(* Vclock *)

let test_vclock_initial () =
  let vt = Proto.Vclock.create ~nprocs:4 in
  for i = 0 to 3 do
    check Alcotest.int "starts at -1" (-1) (Proto.Vclock.get vt i)
  done;
  check Alcotest.int "nprocs" 4 (Proto.Vclock.nprocs vt);
  check Alcotest.int "size" 16 (Proto.Vclock.size_bytes vt)

let test_vclock_merge () =
  let a = vt_of_list [ 1; 5; 2 ] and b = vt_of_list [ 3; 0; 2 ] in
  Proto.Vclock.merge_into a b;
  check Alcotest.(list int) "pointwise max" [ 3; 5; 2 ]
    (List.init 3 (Proto.Vclock.get a))

let test_vclock_leq () =
  let a = vt_of_list [ 1; 2 ] and b = vt_of_list [ 2; 2 ] and c = vt_of_list [ 0; 3 ] in
  check Alcotest.bool "a <= b" true (Proto.Vclock.leq a b);
  check Alcotest.bool "b </= a" false (Proto.Vclock.leq b a);
  check Alcotest.bool "a incomparable c (1)" false (Proto.Vclock.leq a c);
  check Alcotest.bool "a incomparable c (2)" false (Proto.Vclock.leq c a);
  check Alcotest.bool "dominates" true (Proto.Vclock.dominates b a)

let test_vclock_copy_independent () =
  let a = vt_of_list [ 1; 2 ] in
  let b = Proto.Vclock.copy a in
  Proto.Vclock.set b 0 9;
  check Alcotest.int "original unchanged" 1 (Proto.Vclock.get a 0)

let test_vclock_size_mismatch () =
  let a = Proto.Vclock.create ~nprocs:2 and b = Proto.Vclock.create ~nprocs:3 in
  Alcotest.check_raises "merge mismatch" (Invalid_argument "Vclock.merge_into: size mismatch")
    (fun () -> Proto.Vclock.merge_into a b)

let vclock_gen n = QCheck.Gen.(array_size (return n) (int_bound 50))

let vt_of_array a =
  let vt = Proto.Vclock.create ~nprocs:(Array.length a) in
  Array.iteri (Proto.Vclock.set vt) a;
  vt

let prop_merge_upper_bound =
  QCheck.Test.make ~name:"merge is an upper bound" ~count:300
    (QCheck.make QCheck.Gen.(pair (vclock_gen 8) (vclock_gen 8)))
    (fun (xs, ys) ->
      let a = vt_of_array xs and b = vt_of_array ys in
      let m = Proto.Vclock.copy a in
      Proto.Vclock.merge_into m b;
      Proto.Vclock.leq a m && Proto.Vclock.leq b m)

let prop_merge_least =
  QCheck.Test.make ~name:"merge is the least upper bound" ~count:300
    (QCheck.make QCheck.Gen.(pair (vclock_gen 8) (vclock_gen 8)))
    (fun (xs, ys) ->
      let a = vt_of_array xs and b = vt_of_array ys in
      let m = Proto.Vclock.copy a in
      Proto.Vclock.merge_into m b;
      (* any entry of m equals the max of the inputs *)
      List.for_all
        (fun i -> Proto.Vclock.get m i = max xs.(i) ys.(i))
        (List.init 8 (fun i -> i)))

let prop_leq_partial_order =
  QCheck.Test.make ~name:"leq is reflexive and antisymmetric" ~count:300
    (QCheck.make QCheck.Gen.(pair (vclock_gen 6) (vclock_gen 6)))
    (fun (xs, ys) ->
      let a = vt_of_array xs and b = vt_of_array ys in
      Proto.Vclock.leq a a
      && ((not (Proto.Vclock.leq a b && Proto.Vclock.leq b a)) || Proto.Vclock.equal a b))

(* Entries anywhere in the int range, not only indices >= -1: the
   comparisons must be the integer ones at the extremes too. *)
let wide_entry =
  QCheck.Gen.(
    oneof
      [
        int_range (-5) 5;
        map (fun k -> max_int - k) (int_bound 3);
        map (fun k -> min_int + k) (int_bound 3);
        int;
      ])

let prop_matches_list_reference =
  QCheck.Test.make ~name:"leq, merge_into and equal match a list reference" ~count:500
    (QCheck.make
       QCheck.Gen.(
         int_range 1 9 >>= fun n ->
         pair (list_repeat n wide_entry) (list_repeat n wide_entry)))
    (fun (xs, ys) ->
      let a = vt_of_list xs and b = vt_of_list ys in
      let m = Proto.Vclock.copy a in
      Proto.Vclock.merge_into m b;
      let entries vt = List.init (Proto.Vclock.nprocs vt) (Proto.Vclock.get vt) in
      Proto.Vclock.leq a b = List.for_all2 ( <= ) xs ys
      && Proto.Vclock.leq b a = List.for_all2 ( <= ) ys xs
      && Proto.Vclock.equal a b = List.equal Int.equal xs ys
      && Proto.Vclock.is_initial a = List.for_all (Int.equal (-1)) xs
      && entries m = List.map2 Int.max xs ys)

(* ------------------------------------------------------------------ *)
(* Interval *)

let test_interval_size () =
  let no_vt = Proto.Interval.make ~node:0 ~index:1 ~vt:None ~pages:[ 1; 2; 3 ] in
  check Alcotest.int "home-based record" (8 + 12) (Proto.Interval.size_bytes no_vt);
  let with_vt =
    Proto.Interval.make ~node:0 ~index:1 ~vt:(Some (Proto.Vclock.create ~nprocs:16))
      ~pages:[ 1; 2; 3 ]
  in
  check Alcotest.int "homeless record carries the vt" (8 + 12 + 64)
    (Proto.Interval.size_bytes with_vt)

let test_interval_causally_before () =
  let mk node index vt = Proto.Interval.make ~node ~index ~vt:(Some (vt_of_list vt)) ~pages:[] in
  let a = mk 0 0 [ 0; -1 ] in
  let b = mk 1 0 [ 0; 0 ] in
  let c = mk 0 1 [ 1; -1 ] in
  check Alcotest.bool "a before b" true (Proto.Interval.causally_before a b);
  check Alcotest.bool "b not before a" false (Proto.Interval.causally_before b a);
  check Alcotest.bool "b and c concurrent (1)" false (Proto.Interval.causally_before b c);
  check Alcotest.bool "b and c concurrent (2)" false (Proto.Interval.causally_before c b);
  check Alcotest.bool "not before itself" false (Proto.Interval.causally_before a a)

let test_interval_no_vt_ordering () =
  let a = Proto.Interval.make ~node:0 ~index:0 ~vt:None ~pages:[] in
  Alcotest.check_raises "needs timestamps"
    (Invalid_argument "Interval.causally_before: interval lacks a timestamp") (fun () ->
      ignore (Proto.Interval.causally_before a a))

(* The timestamp-sum key that orders diff application (at a fault and in
   failover recovery) is a linear extension of the causal order: strictly
   ordered intervals get strictly ordered keys, so the sort puts the
   earlier one first. *)
let prop_sum_key_linear_extension =
  QCheck.Test.make ~name:"vt-sum key extends the causal order" ~count:500
    (QCheck.make QCheck.Gen.(pair (vclock_gen 6) (vclock_gen 6)))
    (fun (xs, ys) ->
      let va = vt_of_array xs and vb = vt_of_array ys in
      let a = Proto.Interval.make ~node:0 ~index:0 ~vt:(Some va) ~pages:[] in
      let b = Proto.Interval.make ~node:1 ~index:0 ~vt:(Some vb) ~pages:[] in
      (not (Proto.Interval.causally_before a b))
      || Svm.System.causal_key va ~writer:0 ~index:0 < Svm.System.causal_key vb ~writer:1 ~index:0
         && List.map
              (fun (writer, _, _, _) -> writer)
              (Svm.System.causal_sort [ (1, 0, (), vb); (0, 0, (), va) ])
            = [ 0; 1 ])

let suite =
  [
    ("vclock initial", `Quick, test_vclock_initial);
    ("vclock merge", `Quick, test_vclock_merge);
    ("vclock leq", `Quick, test_vclock_leq);
    ("vclock copy independent", `Quick, test_vclock_copy_independent);
    ("vclock size mismatch", `Quick, test_vclock_size_mismatch);
    QCheck_alcotest.to_alcotest prop_merge_upper_bound;
    QCheck_alcotest.to_alcotest prop_merge_least;
    QCheck_alcotest.to_alcotest prop_leq_partial_order;
    QCheck_alcotest.to_alcotest prop_matches_list_reference;
    ("interval sizes", `Quick, test_interval_size);
    ("interval causal order", `Quick, test_interval_causally_before);
    ("interval without vt", `Quick, test_interval_no_vt_ordering);
    QCheck_alcotest.to_alcotest prop_sum_key_linear_extension;
  ]
