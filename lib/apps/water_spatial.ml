(* Water-Spatial: molecular dynamics over a 3-D cell decomposition
   (Splash-2 "Water-Spatial", simplified potentials, same sharing
   structure).

   Space is a unit box divided into G^3 cells of side 1/G (= the cutoff);
   each processor owns a contiguous slab of cells together with the
   molecules currently inside them. Forces need only the 27 surrounding
   cells, so processors read their neighbours' boundary cells and write only
   their own — plus a slow migration of molecules between cells, handled
   under per-cell locks. This is the paper's irregular-but-low-communication
   application. *)

type params = {
  grid : int;  (* cells per dimension *)
  molecules : int;
  steps : int;
  flop_us : float;
  seed : int;
}

let default = { grid = 4; molecules = 256; steps = 3; flop_us = 0.05; seed = 17 }

let name = "Water-Spatial"

let dt = 0.004

let flops_per_pair = 30.

(* Cell slot layout: [count; (id, px, py, pz, vx, vy, vz) x capacity]. *)
let fields = 7

let capacity p = max 8 (4 * p.molecules / (p.grid * p.grid * p.grid))

let cell_words p = 1 + (fields * capacity p)

let ncells p = p.grid * p.grid * p.grid

let cell_of_pos p x y z =
  let g = p.grid in
  let clampi v = min (g - 1) (max 0 v) in
  let cx = clampi (int_of_float (x *. float_of_int g)) in
  let cy = clampi (int_of_float (y *. float_of_int g)) in
  let cz = clampi (int_of_float (z *. float_of_int g)) in
  (((cz * g) + cy) * g) + cx

(* Deterministic initial state of molecule [i]: (x, y, z, vx, vy, vz). *)
let init_molecule p i =
  let f k = App_util.det_float ~seed:(p.seed + k) i in
  let x = f 0 and y = f 1 and z = f 2 in
  let v k = 0.03 *. (f k -. 0.5) in
  (x, y, z, v 3, v 4, v 5)

let pair_force p dx dy dz =
  let cut = 1.0 /. float_of_int p.grid in
  let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
  if r2 > cut *. cut then None
  else
    let inv = 1.0 /. ((r2 +. 0.03) *. sqrt (r2 +. 0.03)) in
    Some (dx *. inv, dy *. inv, dz *. inv)

let clamp_pos x = Float.min 0.999999 (Float.max 0.0 x)

let neighbours p c =
  let g = p.grid in
  let cx = c mod g and cy = c / g mod g and cz = c / (g * g) in
  let acc = ref [] in
  for dz = -1 to 1 do
    for dy = -1 to 1 do
      for dx = -1 to 1 do
        let nx = cx + dx and ny = cy + dy and nz = cz + dz in
        if nx >= 0 && nx < g && ny >= 0 && ny < g && nz >= 0 && nz < g then
          acc := (((nz * g) + ny) * g) + nx :: !acc
      done
    done
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Sequential reference on plain arrays (cells as growable int lists). *)

type ref_state = { rpos : float array; rvel : float array; rcells : int list array }

let reference_init p =
  let n = p.molecules in
  let rpos = Array.make (3 * n) 0. and rvel = Array.make (3 * n) 0. in
  let rcells = Array.make (ncells p) [] in
  for i = 0 to n - 1 do
    let x, y, z, vx, vy, vz = init_molecule p i in
    rpos.(3 * i) <- x;
    rpos.((3 * i) + 1) <- y;
    rpos.((3 * i) + 2) <- z;
    rvel.(3 * i) <- vx;
    rvel.((3 * i) + 1) <- vy;
    rvel.((3 * i) + 2) <- vz;
    let c = cell_of_pos p x y z in
    rcells.(c) <- rcells.(c) @ [ i ]
  done;
  { rpos; rvel; rcells }

let reference_step p st =
  let force = Array.make (Array.length st.rpos) 0. in
  Array.iteri
    (fun c members ->
      let neigh = neighbours p c in
      List.iter
        (fun i ->
          List.iter
            (fun c' ->
              List.iter
                (fun j ->
                  if j <> i then
                    match
                      pair_force p
                        (st.rpos.(3 * i) -. st.rpos.(3 * j))
                        (st.rpos.((3 * i) + 1) -. st.rpos.((3 * j) + 1))
                        (st.rpos.((3 * i) + 2) -. st.rpos.((3 * j) + 2))
                    with
                    | None -> ()
                    | Some (fx, fy, fz) ->
                        force.(3 * i) <- force.(3 * i) +. fx;
                        force.((3 * i) + 1) <- force.((3 * i) + 1) +. fy;
                        force.((3 * i) + 2) <- force.((3 * i) + 2) +. fz)
                st.rcells.(c'))
            neigh)
        members)
    st.rcells;
  Array.iteri
    (fun a f ->
      st.rvel.(a) <- st.rvel.(a) +. (dt *. f);
      st.rpos.(a) <- clamp_pos (st.rpos.(a) +. (dt *. st.rvel.(a))))
    force;
  (* migrate *)
  let moved = ref [] in
  Array.iteri
    (fun c members ->
      let stay, go =
        List.partition
          (fun i -> cell_of_pos p st.rpos.(3 * i) st.rpos.((3 * i) + 1) st.rpos.((3 * i) + 2) = c)
          members
      in
      st.rcells.(c) <- stay;
      moved := go @ !moved)
    st.rcells;
  List.iter
    (fun i ->
      let c = cell_of_pos p st.rpos.(3 * i) st.rpos.((3 * i) + 1) st.rpos.((3 * i) + 2) in
      st.rcells.(c) <- st.rcells.(c) @ [ i ])
    !moved

(* Sequential reference: final (positions, velocities) by molecule id. *)
let reference p =
  let st = reference_init p in
  for _ = 1 to p.steps do
    reference_step p st
  done;
  (st.rpos, st.rvel)

(* ------------------------------------------------------------------ *)

let cell_lock_base = 1000

let body ?(verify = true) p ctx =
  let me = Svm.Api.pid ctx and np = Svm.Api.nprocs ctx in
  let nc = ncells p in
  let cap = capacity p in
  let cw = cell_words p in
  let reference = lazy (reference p) in
  let cell_owner c = App_util.owner_of ~n:nc ~nparts:np c in
  if me = 0 then begin
    let home page = cell_owner (min (nc - 1) (page * Svm.Api.page_words ctx / cw)) in
    let cells = Svm.Api.malloc ctx ~name:"ws.cells" ~home (nc * cw) in
    (* Distribute molecules into cells. *)
    for i = 0 to p.molecules - 1 do
      let x, y, z, vx, vy, vz = init_molecule p i in
      let c = cell_of_pos p x y z in
      let base = cells + (c * cw) in
      let count = Svm.Api.read_int ctx base in
      if count >= cap then App_util.failf "ws: cell %d overflow during init" c;
      let slot = base + 1 + (fields * count) in
      Svm.Api.write_int ctx slot i;
      Svm.Api.write ctx (slot + 1) x;
      Svm.Api.write ctx (slot + 2) y;
      Svm.Api.write ctx (slot + 3) z;
      Svm.Api.write ctx (slot + 4) vx;
      Svm.Api.write ctx (slot + 5) vy;
      Svm.Api.write ctx (slot + 6) vz;
      Svm.Api.write_int ctx base (count + 1)
    done
  end;
  Svm.Api.barrier ctx;
  Svm.Api.start_timing ctx;
  let cells = Svm.Api.root ctx "ws.cells" in
  let cell_base c = cells + (c * cw) in
  let clo, chi = App_util.chunk ~n:nc ~nparts:np me in
  (* Local force store for own cells: indexed [cell - clo][slot]. *)
  let forces = Array.init (chi - clo) (fun _ -> Array.make (3 * cap) 0.) in
  for _ = 1 to p.steps do
    (* Phase 1: forces for molecules in own cells, reading neighbours. *)
    for c = clo to chi - 1 do
      let f = forces.(c - clo) in
      Array.fill f 0 (3 * cap) 0.;
      let base = cell_base c in
      let count = Svm.Api.read_int ctx base in
      for s = 0 to count - 1 do
        let slot = base + 1 + (fields * s) in
        let xi = Svm.Api.read ctx (slot + 1)
        and yi = Svm.Api.read ctx (slot + 2)
        and zi = Svm.Api.read ctx (slot + 3) in
        let id_i = Svm.Api.read_int ctx slot in
        List.iter
          (fun c' ->
            let base' = cell_base c' in
            let count' = Svm.Api.read_int ctx base' in
            for s' = 0 to count' - 1 do
              let slot' = base' + 1 + (fields * s') in
              if Svm.Api.read_int ctx slot' <> id_i then begin
                (match
                   pair_force p
                     (xi -. Svm.Api.read ctx (slot' + 1))
                     (yi -. Svm.Api.read ctx (slot' + 2))
                     (zi -. Svm.Api.read ctx (slot' + 3))
                 with
                | None -> ()
                | Some (fx, fy, fz) ->
                    f.(3 * s) <- f.(3 * s) +. fx;
                    f.((3 * s) + 1) <- f.((3 * s) + 1) +. fy;
                    f.((3 * s) + 2) <- f.((3 * s) + 2) +. fz);
                Svm.Api.compute ctx (flops_per_pair *. p.flop_us)
              end
            done)
          (neighbours p c)
      done
    done;
    Svm.Api.barrier ctx;
    (* Phase 2: integrate own molecules in place. *)
    for c = clo to chi - 1 do
      let f = forces.(c - clo) in
      let base = cell_base c in
      let count = Svm.Api.read_int ctx base in
      for s = 0 to count - 1 do
        let slot = base + 1 + (fields * s) in
        for d = 0 to 2 do
          let v = Svm.Api.read ctx (slot + 4 + d) +. (dt *. f.((3 * s) + d)) in
          Svm.Api.write ctx (slot + 4 + d) v;
          Svm.Api.write ctx (slot + 1 + d) (clamp_pos (Svm.Api.read ctx (slot + 1 + d) +. (dt *. v)))
        done
      done
    done;
    (* Phase 3a: pull emigrants out of own cells (owner-only writes). *)
    let emigrants = ref [] in
    for c = clo to chi - 1 do
      let base = cell_base c in
      let count = ref (Svm.Api.read_int ctx base) in
      let s = ref 0 in
      while !s < !count do
        let slot = base + 1 + (fields * !s) in
        let x = Svm.Api.read ctx (slot + 1)
        and y = Svm.Api.read ctx (slot + 2)
        and z = Svm.Api.read ctx (slot + 3) in
        if cell_of_pos p x y z <> c then begin
          let record = Array.init fields (fun k -> Svm.Api.read ctx (slot + k)) in
          emigrants := record :: !emigrants;
          (* swap-with-last removal *)
          decr count;
          let last = base + 1 + (fields * !count) in
          for k = 0 to fields - 1 do
            Svm.Api.write ctx (slot + k) (Svm.Api.read ctx (last + k))
          done
        end
        else incr s
      done;
      Svm.Api.write_int ctx base !count
    done;
    Svm.Api.barrier ctx;
    (* Phase 3b: append emigrants to their new cells under per-cell locks. *)
    List.iter
      (fun record ->
        let c = cell_of_pos p record.(1) record.(2) record.(3) in
        Svm.Api.lock ctx (cell_lock_base + c);
        let base = cell_base c in
        let count = Svm.Api.read_int ctx base in
        if count >= cap then App_util.failf "ws: cell %d overflow during migration" c;
        let slot = base + 1 + (fields * count) in
        for k = 0 to fields - 1 do
          Svm.Api.write ctx (slot + k) record.(k)
        done;
        Svm.Api.write_int ctx base (count + 1);
        Svm.Api.unlock ctx (cell_lock_base + c))
      !emigrants;
    Svm.Api.barrier ctx
  done;
  if verify && me = 0 then begin
    let exp_pos, exp_vel = Lazy.force reference in
    let seen = Array.make p.molecules false in
    for c = 0 to nc - 1 do
      let base = cell_base c in
      let count = Svm.Api.read_int ctx base in
      for s = 0 to count - 1 do
        let slot = base + 1 + (fields * s) in
        let i = Svm.Api.read_int ctx slot in
        if seen.(i) then App_util.failf "ws: molecule %d appears twice" i;
        seen.(i) <- true;
        for d = 0 to 2 do
          App_util.check_close ~what:"ws.pos" ~tol:1e-5 ~index:((3 * i) + d)
            exp_pos.((3 * i) + d)
            (Svm.Api.read ctx (slot + 1 + d));
          App_util.check_close ~what:"ws.vel" ~tol:1e-5 ~index:((3 * i) + d)
            exp_vel.((3 * i) + d)
            (Svm.Api.read ctx (slot + 4 + d))
        done
      done
    done;
    Array.iteri (fun i s -> if not s then App_util.failf "ws: molecule %d lost" i) seen
  end;
  Svm.Api.barrier ctx
