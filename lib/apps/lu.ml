(* Blocked dense LU factorization without pivoting (Splash-2 "LU",
   contiguous-blocks version).

   The matrix is stored block-major: block (bi, bj) of size B x B occupies a
   contiguous range, so a 32 x 32 block fills exactly one 8 KB page and the
   sharing is coarse-grained. Blocks are assigned to processors on a 2-D
   scatter grid; each block's pages are homed at its owner (the "intelligent
   home choice" of paper §4.4: with one writer per block, the home-based
   protocols create no diffs at all). *)

type params = {
  n : int;  (* matrix dimension; multiple of block *)
  block : int;  (* block dimension *)
  flop_us : float;  (* simulated cost of one floating-point operation *)
  seed : int;
  owner_homes : bool;
      (* home each block's pages at its owner (the paper's "intelligent"
         placement, 4.4); false falls back to the configured policy *)
}

let default = { n = 256; block = 32; flop_us = 0.03; seed = 7; owner_homes = true }

let name = "LU"

(* 2-D scatter decomposition: the processor grid is pr x pc. *)
let proc_grid nprocs =
  let rec largest d = if nprocs mod d = 0 then d else largest (d - 1) in
  let pr = largest (int_of_float (sqrt (float_of_int nprocs))) in
  (pr, nprocs / pr)

(* Owner of block (bi, bj) on the 2-D scatter grid. *)
let owner ~nprocs bi bj =
  let pr, pc = proc_grid nprocs in
  ((bi mod pr) * pc) + (bj mod pc)

(* ------------------------------------------------------------------ *)
(* Block kernels, shared by the SVM run and the sequential reference.
   All operate on row-major B x B float arrays. *)

let factor_diag b a =
  for k = 0 to b - 1 do
    let pivot = a.((k * b) + k) in
    for i = k + 1 to b - 1 do
      a.((i * b) + k) <- a.((i * b) + k) /. pivot;
      let lik = a.((i * b) + k) in
      for j = k + 1 to b - 1 do
        a.((i * b) + j) <- a.((i * b) + j) -. (lik *. a.((k * b) + j))
      done
    done
  done

(* akj := L(diag)^-1 akj, L unit lower triangular. *)
let solve_row b diag akj =
  for t = 0 to b - 1 do
    for r = t + 1 to b - 1 do
      let lrt = diag.((r * b) + t) in
      for c = 0 to b - 1 do
        akj.((r * b) + c) <- akj.((r * b) + c) -. (lrt *. akj.((t * b) + c))
      done
    done
  done

(* aik := aik U(diag)^-1. *)
let solve_col b diag aik =
  for t = 0 to b - 1 do
    let utt = diag.((t * b) + t) in
    for r = 0 to b - 1 do
      aik.((r * b) + t) <- aik.((r * b) + t) /. utt
    done;
    for c = t + 1 to b - 1 do
      let utc = diag.((t * b) + c) in
      for r = 0 to b - 1 do
        aik.((r * b) + c) <- aik.((r * b) + c) -. (aik.((r * b) + t) *. utc)
      done
    done
  done

(* c := c - a * b' *)
let matmul_sub b a b' c =
  for i = 0 to b - 1 do
    for k = 0 to b - 1 do
      let aik = a.((i * b) + k) in
      for j = 0 to b - 1 do
        c.((i * b) + j) <- c.((i * b) + j) -. (aik *. b'.((k * b) + j))
      done
    done
  done

(* Initial matrix, diagonally dominant so factorization is stable without
   pivoting. Indexed block-major like the shared allocation. *)
let init_matrix p =
  let nb = p.n / p.block in
  let data = Array.init (p.n * p.n) (fun i -> App_util.det_float ~seed:p.seed i -. 0.5) in
  (* strengthen the diagonal *)
  for bi = 0 to nb - 1 do
    let base = ((bi * nb) + bi) * p.block * p.block in
    for k = 0 to p.block - 1 do
      data.(base + (k * p.block) + k) <- data.(base + (k * p.block) + k) +. float_of_int p.n
    done
  done;
  data

let block_offset p nb bi bj = ((bi * nb) + bj) * p.block * p.block

(* Sequential reference: same blocked algorithm on a plain array, hence
   bit-identical rounding. *)
let reference p =
  let nb = p.n / p.block in
  let data = init_matrix p in
  let sub p' bi bj = Array.sub data (block_offset p' nb bi bj) (p'.block * p'.block) in
  let put p' bi bj blk = Array.blit blk 0 data (block_offset p' nb bi bj) (p'.block * p'.block) in
  for k = 0 to nb - 1 do
    let diag = sub p k k in
    factor_diag p.block diag;
    put p k k diag;
    for j = k + 1 to nb - 1 do
      let akj = sub p k j in
      solve_row p.block diag akj;
      put p k j akj
    done;
    for i = k + 1 to nb - 1 do
      let aik = sub p i k in
      solve_col p.block diag aik;
      put p i k aik
    done;
    for i = k + 1 to nb - 1 do
      let aik = sub p i k in
      for j = k + 1 to nb - 1 do
        let akj = sub p k j in
        let c = sub p i j in
        matmul_sub p.block aik akj c;
        put p i j c
      done
    done
  done;
  data

(* ------------------------------------------------------------------ *)

let flops_factor b = 2. /. 3. *. float_of_int (b * b * b)

let flops_solve b = float_of_int (b * b * b)

let flops_matmul b = 2. *. float_of_int (b * b * b)

let body ?(verify = true) p ctx =
  if p.n mod p.block <> 0 then invalid_arg "Lu.body: block must divide n";
  let nb = p.n / p.block in
  let bwords = p.block * p.block in
  let me = Svm.Api.pid ctx and np = Svm.Api.nprocs ctx in
  let reference = lazy (reference p) in
  if me = 0 then begin
    let pages_per_block = max 1 (bwords / Svm.Api.page_words ctx) in
    let home page =
      let blk = page / pages_per_block in
      owner ~nprocs:np (blk / nb) (blk mod nb)
    in
    let a =
      if p.owner_homes then Svm.Api.malloc ctx ~name:"lu.a" ~home (p.n * p.n)
      else Svm.Api.malloc ctx ~name:"lu.a" (p.n * p.n)
    in
    let init = init_matrix p in
    Array.iteri (fun i v -> Svm.Api.write ctx (a + i) v) init
  end;
  Svm.Api.barrier ctx;
  Svm.Api.start_timing ctx;
  let a = Svm.Api.root ctx "lu.a" in
  let addr bi bj = a + block_offset p nb bi bj in
  let mine bi bj = owner ~nprocs:np bi bj = me in
  let buf_diag = Array.make bwords 0. in
  let buf_row = Array.make bwords 0. in
  let buf_col = Array.make bwords 0. in
  let buf_c = Array.make bwords 0. in
  for k = 0 to nb - 1 do
    if mine k k then begin
      App_util.read_block ctx ~addr:(addr k k) ~len:bwords buf_diag;
      factor_diag p.block buf_diag;
      Svm.Api.compute ctx (flops_factor p.block *. p.flop_us);
      App_util.write_block ctx ~addr:(addr k k) ~len:bwords buf_diag
    end;
    Svm.Api.barrier ctx;
    let have_perimeter =
      (* perimeter owners pull the diagonal block once *)
      List.exists
        (fun x -> x)
        (List.init (nb - k - 1) (fun d -> mine k (k + 1 + d) || mine (k + 1 + d) k))
    in
    if have_perimeter then App_util.read_block ctx ~addr:(addr k k) ~len:bwords buf_diag;
    for j = k + 1 to nb - 1 do
      if mine k j then begin
        App_util.read_block ctx ~addr:(addr k j) ~len:bwords buf_row;
        solve_row p.block buf_diag buf_row;
        Svm.Api.compute ctx (flops_solve p.block *. p.flop_us);
        App_util.write_block ctx ~addr:(addr k j) ~len:bwords buf_row
      end
    done;
    for i = k + 1 to nb - 1 do
      if mine i k then begin
        App_util.read_block ctx ~addr:(addr i k) ~len:bwords buf_col;
        solve_col p.block buf_diag buf_col;
        Svm.Api.compute ctx (flops_solve p.block *. p.flop_us);
        App_util.write_block ctx ~addr:(addr i k) ~len:bwords buf_col
      end
    done;
    Svm.Api.barrier ctx;
    for i = k + 1 to nb - 1 do
      (* pull A(i,k) once per block row we own something in *)
      let row_needed =
        List.exists (fun x -> x) (List.init (nb - k - 1) (fun d -> mine i (k + 1 + d)))
      in
      if row_needed then begin
        App_util.read_block ctx ~addr:(addr i k) ~len:bwords buf_col;
        for j = k + 1 to nb - 1 do
          if mine i j then begin
            App_util.read_block ctx ~addr:(addr k j) ~len:bwords buf_row;
            App_util.read_block ctx ~addr:(addr i j) ~len:bwords buf_c;
            matmul_sub p.block buf_col buf_row buf_c;
            Svm.Api.compute ctx (flops_matmul p.block *. p.flop_us);
            App_util.write_block ctx ~addr:(addr i j) ~len:bwords buf_c
          end
        done
      end
    done;
    Svm.Api.barrier ctx
  done;
  if verify && me = 0 then begin
    let expected = Lazy.force reference in
    for i = 0 to (p.n * p.n) - 1 do
      App_util.check_close ~what:"lu.a" ~tol:1e-9 ~index:i expected.(i)
        (Svm.Api.read ctx (a + i))
    done
  end;
  Svm.Api.barrier ctx
