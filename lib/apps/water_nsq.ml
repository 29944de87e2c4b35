(* Water-Nsquared: O(n^2) molecular dynamics with a cutoff radius
   (Splash-2 "Water-Nsquared", simplified potentials, same sharing
   structure).

   Molecules are partitioned contiguously. Each step predicts positions,
   computes pairwise forces over each molecule's following n/2 neighbours
   (the half-shell), and corrects velocities. Force contributions to other
   processors' molecules are accumulated locally and merged under
   per-partition locks — the migratory, multiple-writer pattern whose
   aggregated diffs exceed a page and favour home-based protocols
   (paper §4.6). *)

type params = {
  molecules : int;
  steps : int;
  cutoff : float;  (* squared-distance cutoff as a fraction of box size *)
  flop_us : float;
  seed : int;
}

let default = { molecules = 288; steps = 3; cutoff = 0.5; flop_us = 0.05; seed = 13 }

let name = "Water-Nsquared"

let dt = 0.002

let flops_per_pair = 30.

(* Deterministic initial state: positions in a unit box, small velocities. *)
let init_pos p i d = App_util.det_float ~seed:p.seed ((i * 3) + d)

let init_vel p i d = 0.05 *. (App_util.det_float ~seed:(p.seed + 1) ((i * 3) + d) -. 0.5)

(* Pair force: soft inverse-square with cutoff; purely a deterministic
   function of the two positions. *)
let pair_force p xi yi zi xj yj zj =
  let dx = xi -. xj and dy = yi -. yj and dz = zi -. zj in
  let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
  if r2 > p.cutoff *. p.cutoff then None
  else
    let inv = 1.0 /. ((r2 +. 0.05) *. sqrt (r2 +. 0.05)) in
    Some (dx *. inv, dy *. inv, dz *. inv)

(* Half-shell neighbour count for molecule [i]: pairs (i, i+d mod n) for
   d = 1..n/2, with the d = n/2 pair counted from one side only when n is
   even. *)
let half_shell n i =
  let h = n / 2 in
  if n land 1 = 1 then h else if i < h then h else h - 1

(* One step on plain arrays: the sequential reference (and documentation of
   the physics). *)
let reference_step p pos vel =
  let n = p.molecules in
  let force = Array.make (3 * n) 0. in
  for i = 0 to n - 1 do
    for d = 0 to 2 do
      pos.((3 * i) + d) <- pos.((3 * i) + d) +. (dt *. vel.((3 * i) + d))
    done
  done;
  for i = 0 to n - 1 do
    for d = 1 to half_shell n i do
      let j = (i + d) mod n in
      match
        pair_force p pos.(3 * i) pos.((3 * i) + 1) pos.((3 * i) + 2) pos.(3 * j)
          pos.((3 * j) + 1)
          pos.((3 * j) + 2)
      with
      | None -> ()
      | Some (fx, fy, fz) ->
          force.(3 * i) <- force.(3 * i) +. fx;
          force.((3 * i) + 1) <- force.((3 * i) + 1) +. fy;
          force.((3 * i) + 2) <- force.((3 * i) + 2) +. fz;
          force.(3 * j) <- force.(3 * j) -. fx;
          force.((3 * j) + 1) <- force.((3 * j) + 1) -. fy;
          force.((3 * j) + 2) <- force.((3 * j) + 2) -. fz
    done
  done;
  for i = 0 to (3 * n) - 1 do
    vel.(i) <- vel.(i) +. (dt *. force.(i))
  done

(* Sequential reference: final (positions, velocities). *)
let reference p =
  let n = p.molecules in
  let pos = Array.init (3 * n) (fun idx -> init_pos p (idx / 3) (idx mod 3)) in
  let vel = Array.init (3 * n) (fun idx -> init_vel p (idx / 3) (idx mod 3)) in
  for _ = 1 to p.steps do
    reference_step p pos vel
  done;
  (pos, vel)

let body ?(verify = true) p ctx =
  let n = p.molecules in
  let me = Svm.Api.pid ctx and np = Svm.Api.nprocs ctx in
  let reference = lazy (reference p) in
  if me = 0 then begin
    let words = 3 * n in
    (* No placement hints: every page of these arrays is written by many
       nodes, so round-robin homes (the configured default policy) spread
       the diff flushes instead of hot-spotting one owner. *)
    ignore (Svm.Api.malloc ctx ~name:"wn.pos" words);
    ignore (Svm.Api.malloc ctx ~name:"wn.vel" words);
    ignore (Svm.Api.malloc ctx ~name:"wn.force" words);
    let pos = Svm.Api.root ctx "wn.pos" and vel = Svm.Api.root ctx "wn.vel" in
    for i = 0 to n - 1 do
      for d = 0 to 2 do
        Svm.Api.write ctx (pos + (3 * i) + d) (init_pos p i d);
        Svm.Api.write ctx (vel + (3 * i) + d) (init_vel p i d)
      done
    done
  end;
  Svm.Api.barrier ctx;
  Svm.Api.start_timing ctx;
  let pos = Svm.Api.root ctx "wn.pos" in
  let vel = Svm.Api.root ctx "wn.vel" in
  let force = Svm.Api.root ctx "wn.force" in
  let lo, hi = App_util.chunk ~n ~nparts:np me in
  let local_pos = Array.make (3 * n) 0. in
  let acc = Array.make (3 * n) 0. in
  for _ = 1 to p.steps do
    (* Predict positions and clear forces for own molecules. *)
    for i = lo to hi - 1 do
      for d = 0 to 2 do
        let a = (3 * i) + d in
        Svm.Api.write ctx (pos + a) (Svm.Api.read ctx (pos + a) +. (dt *. Svm.Api.read ctx (vel + a)));
        Svm.Api.write ctx (force + a) 0.
      done
    done;
    Svm.Api.barrier ctx;
    (* Read all positions once (coarse-grained reads, as in the original),
       then accumulate pair forces locally. *)
    App_util.read_block ctx ~addr:pos ~len:(3 * n) local_pos;
    Array.fill acc 0 (3 * n) 0.;
    for i = lo to hi - 1 do
      for d = 1 to half_shell n i do
        let j = (i + d) mod n in
        (match
           pair_force p local_pos.(3 * i)
             local_pos.((3 * i) + 1)
             local_pos.((3 * i) + 2)
             local_pos.(3 * j)
             local_pos.((3 * j) + 1)
             local_pos.((3 * j) + 2)
         with
        | None -> ()
        | Some (fx, fy, fz) ->
            acc.(3 * i) <- acc.(3 * i) +. fx;
            acc.((3 * i) + 1) <- acc.((3 * i) + 1) +. fy;
            acc.((3 * i) + 2) <- acc.((3 * i) + 2) +. fz;
            acc.(3 * j) <- acc.(3 * j) -. fx;
            acc.((3 * j) + 1) <- acc.((3 * j) + 1) -. fy;
            acc.((3 * j) + 2) <- acc.((3 * j) + 2) -. fz);
        Svm.Api.compute ctx (flops_per_pair *. p.flop_us)
      done
    done;
    (* Merge accumulated contributions into each owner's partition under its
       lock (per-partition locks, paper §4.1). *)
    for q = 0 to np - 1 do
      let target = (me + q) mod np in
      let qlo, qhi = App_util.chunk ~n ~nparts:np target in
      let touched = ref false in
      (try
         for a = 3 * qlo to (3 * qhi) - 1 do
           if acc.(a) <> 0. then raise Exit
         done
       with Exit -> touched := true);
      if !touched then begin
        Svm.Api.lock ctx target;
        for a = 3 * qlo to (3 * qhi) - 1 do
          if acc.(a) <> 0. then
            Svm.Api.write ctx (force + a) (Svm.Api.read ctx (force + a) +. acc.(a))
        done;
        Svm.Api.unlock ctx target
      end
    done;
    Svm.Api.barrier ctx;
    (* Correct velocities for own molecules. *)
    for a = 3 * lo to (3 * hi) - 1 do
      Svm.Api.write ctx (vel + a) (Svm.Api.read ctx (vel + a) +. (dt *. Svm.Api.read ctx (force + a)))
    done;
    Svm.Api.barrier ctx
  done;
  if verify && me = 0 then begin
    let exp_pos, exp_vel = Lazy.force reference in
    for a = 0 to (3 * n) - 1 do
      App_util.check_close ~what:"wn.pos" ~tol:1e-6 ~index:a exp_pos.(a)
        (Svm.Api.read ctx (pos + a));
      App_util.check_close ~what:"wn.vel" ~tol:1e-6 ~index:a exp_vel.(a)
        (Svm.Api.read ctx (vel + a))
    done
  end;
  Svm.Api.barrier ctx
