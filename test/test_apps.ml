(* Application-level tests: every benchmark verifies against its sequential
   reference under every protocol at several machine sizes, plus unit tests
   of the kernels themselves. *)

let check = Alcotest.check

let verify_matrix (app : Apps.Registry.t) sizes =
  ( Printf.sprintf "%s verifies under all protocols" app.Apps.Registry.name,
    `Slow,
    fun () ->
      List.iter
        (fun protocol ->
          List.iter
            (fun nprocs ->
              try
                ignore
                  (Svm.Runtime.run
                     (Svm.Config.make ~nprocs protocol)
                     (app.Apps.Registry.body ~verify:true))
              with e ->
                Alcotest.failf "%s under %s at P=%d: %s" app.Apps.Registry.name
                  (Svm.Config.protocol_name protocol) nprocs (Printexc.to_string e))
            sizes)
        Svm.Config.all_protocols )

(* --- kernel unit tests ---------------------------------------------- *)

let test_lu_factorization_correct () =
  (* L * U of the reference factorization must reproduce the initial
     matrix. *)
  let p = { Apps.Lu.default with n = 32; block = 8 } in
  let original = Apps.Lu.init_matrix p in
  let factored = Apps.Lu.reference p in
  let nb = p.Apps.Lu.n / p.Apps.Lu.block in
  let b = p.Apps.Lu.block in
  (* element (i,j) from block-major storage *)
  let get m i j =
    let bi = i / b and bj = j / b in
    let off = Apps.Lu.block_offset p nb bi bj in
    m.(off + ((i mod b) * b) + (j mod b))
  in
  let n = p.Apps.Lu.n in
  let max_err = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      (* (LU)(i,j) = sum_k L(i,k) U(k,j), L unit lower, U upper *)
      let acc = ref 0. in
      for k = 0 to min i j do
        let l = if k = i then 1.0 else get factored i k in
        let u = get factored k j in
        acc := !acc +. (l *. u)
      done;
      max_err := Float.max !max_err (Float.abs (!acc -. get original i j))
    done
  done;
  check Alcotest.bool
    (Printf.sprintf "max |LU - A| = %g small" !max_err)
    true (!max_err < 1e-6)

let test_sor_reference_fixed_boundary () =
  let p = { Apps.Sor.default with rows = 16; cols = 16; iters = 3 } in
  let result = Apps.Sor.reference p in
  (* boundary cells never change *)
  for j = 0 to p.Apps.Sor.cols - 1 do
    check (Alcotest.float 0.) "top row fixed" (Apps.Sor.init_value p 0 j) result.(j)
  done

let test_sor_zero_interior_inactive () =
  (* With a zero interior, cells far from the boundary stay zero for the
     first iterations (the 4.8 no-diff argument). *)
  let p = { Apps.Sor.default with rows = 32; cols = 32; iters = 2; zero_interior = true } in
  let result = Apps.Sor.reference p in
  check (Alcotest.float 0.) "deep interior still zero" 0. result.((16 * 32) + 16)

let test_water_half_shell_covers_pairs () =
  (* every unordered pair is enumerated exactly once *)
  List.iter
    (fun n ->
      let count = ref 0 in
      for i = 0 to n - 1 do
        count := !count + Apps.Water_nsq.half_shell n i
      done;
      check Alcotest.int
        (Printf.sprintf "n=%d pair count" n)
        (n * (n - 1) / 2)
        !count)
    [ 4; 5; 8; 96; 97 ]

let test_water_spatial_cell_of_pos () =
  let p = { Apps.Water_spatial.default with grid = 4 } in
  check Alcotest.int "origin" 0 (Apps.Water_spatial.cell_of_pos p 0.0 0.0 0.0);
  check Alcotest.int "far corner" 63 (Apps.Water_spatial.cell_of_pos p 0.99 0.99 0.99);
  check Alcotest.int "clamped" 63 (Apps.Water_spatial.cell_of_pos p 1.5 1.5 1.5)

let test_water_spatial_neighbours () =
  let p = { Apps.Water_spatial.default with grid = 4 } in
  check Alcotest.int "corner has 8 neighbours" 8
    (List.length (Apps.Water_spatial.neighbours p 0));
  (* interior cell of a 4x4x4 grid: (1,1,1) = 1 + 4 + 16 = 21 *)
  check Alcotest.int "interior has 27" 27 (List.length (Apps.Water_spatial.neighbours p 21))

let test_raytrace_reference_deterministic () =
  let p = { Apps.Raytrace.default with width = 16; height = 16; spheres = 4 } in
  let a = Apps.Raytrace.reference p in
  let b = Apps.Raytrace.reference p in
  check Alcotest.bool "bitwise equal" true (a = b);
  (* some rays hit, some miss *)
  let hits = Array.exists (fun v -> v > 0.06) a in
  let misses = Array.exists (fun v -> v <= 0.05) a in
  check Alcotest.bool "scene has contrast" true (hits && misses)

let test_registry_find () =
  List.iter
    (fun name ->
      match Apps.Registry.find name Apps.Registry.Test with
      | Some _ -> ()
      | None -> Alcotest.failf "registry must know %S" name)
    Apps.Registry.names;
  check Alcotest.bool "unknown app" true (Apps.Registry.find "nope" Apps.Registry.Test = None)

let test_chunk_partition () =
  (* chunks tile [0, n) exactly *)
  List.iter
    (fun (n, nparts) ->
      let total = ref 0 in
      for part = 0 to nparts - 1 do
        let lo, hi = Apps.App_util.chunk ~n ~nparts part in
        total := !total + (hi - lo);
        for i = lo to hi - 1 do
          check Alcotest.int "owner agrees" part (Apps.App_util.owner_of ~n ~nparts i)
        done
      done;
      check Alcotest.int "covers everything" n !total)
    [ (10, 3); (96, 8); (7, 7); (5, 8) ]

(* det_float is one splitmix64 draw written out: bit for bit the first
   [Sim.Rng.float] of a generator seeded at [seed + i * 2654435761]. *)
let test_det_float_is_one_rng_draw () =
  List.iter
    (fun seed ->
      for i = 0 to (1 lsl 20) - 1 do
        let want = Sim.Rng.float (Sim.Rng.create ~seed:(seed + (i * 2654435761))) 1.0 in
        if Int64.bits_of_float (Apps.App_util.det_float ~seed i) <> Int64.bits_of_float want then
          Alcotest.failf "det_float ~seed:%d %d <> %h" seed i want
      done)
    [ 0; 11; -7 ]

let suite =
  [
    ("lu factorization is correct", `Quick, test_lu_factorization_correct);
    ("det_float is one rng draw", `Quick, test_det_float_is_one_rng_draw);
    ("sor boundary fixed", `Quick, test_sor_reference_fixed_boundary);
    ("sor zero interior stays inactive", `Quick, test_sor_zero_interior_inactive);
    ("water half-shell pair coverage", `Quick, test_water_half_shell_covers_pairs);
    ("water-spatial cell mapping", `Quick, test_water_spatial_cell_of_pos);
    ("water-spatial neighbourhoods", `Quick, test_water_spatial_neighbours);
    ("raytrace reference deterministic", `Quick, test_raytrace_reference_deterministic);
    ("registry finds all apps", `Quick, test_registry_find);
    ("chunk partitions exactly", `Quick, test_chunk_partition);
    verify_matrix (Apps.Registry.lu Apps.Registry.Test) [ 1; 4; 8 ];
    verify_matrix (Apps.Registry.sor Apps.Registry.Test) [ 1; 4; 8 ];
    verify_matrix (Apps.Registry.sor_zero Apps.Registry.Test) [ 1; 4 ];
    verify_matrix (Apps.Registry.water_nsq Apps.Registry.Test) [ 1; 3; 8 ];
    verify_matrix (Apps.Registry.water_spatial Apps.Registry.Test) [ 1; 4; 8 ];
    verify_matrix (Apps.Registry.raytrace Apps.Registry.Test) [ 1; 4; 8 ];
  ]
