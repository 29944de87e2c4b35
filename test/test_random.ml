(* Randomized data-race-free workloads, run under all four protocols.

   The generator builds a random but DRF program: each lock protects a
   disjoint region of a shared array; each process owns a private region it
   writes without locks; barriers are collective. Because region updates
   commute (addition), the expected final memory is computable exactly, and
   every protocol must produce it bit-for-bit. This is the strongest
   correctness net over the protocol state machines. *)

type op =
  | Locked_add of { lock : int; value : int }  (* add value to each word of the region *)
  | Private_write of { round : int }
  | Do_barrier

type program = {
  nprocs : int;
  nlocks : int;
  region_words : int;
  ops : op list array;  (* per process, barriers aligned across processes *)
}

let gen_program =
  QCheck.Gen.(
    let* nprocs = int_range 2 6 in
    let* nlocks = int_range 1 4 in
    let* region_words = int_range 3 40 in
    let* nphases = int_range 1 4 in
    let gen_phase pid =
      let* n_ops = int_range 0 6 in
      list_size (return n_ops)
        (frequency
           [
             ( 3,
               let* lock = int_bound (nlocks - 1) in
               let* value = int_range 1 9 in
               return (Locked_add { lock; value }) );
             (1, return (Private_write { round = pid + 1 }));
           ])
    in
    let* per_proc_phases =
      flatten_l (List.init nprocs (fun pid -> flatten_l (List.init nphases (fun _ -> gen_phase pid))))
    in
    let ops =
      Array.init nprocs (fun pid ->
          let phases = List.nth per_proc_phases pid in
          List.concat_map (fun phase -> phase @ [ Do_barrier ]) phases)
    in
    return { nprocs; nlocks; region_words; ops })

(* Expected final memory: locked regions accumulate all Locked_add values;
   private regions hold the last Private_write of their owner. *)
let expected program =
  let total_words = (program.nlocks + program.nprocs) * program.region_words in
  let mem = Array.make total_words 0 in
  Array.iteri
    (fun pid ops ->
      List.iter
        (fun op ->
          match op with
          | Locked_add { lock; value } ->
              let base = lock * program.region_words in
              for i = 0 to program.region_words - 1 do
                mem.(base + i) <- mem.(base + i) + value
              done
          | Private_write { round } ->
              let base = (program.nlocks + pid) * program.region_words in
              for i = 0 to program.region_words - 1 do
                mem.(base + i) <- (round * 100) + i
              done
          | Do_barrier -> ())
        ops)
    program.ops;
  mem

(* The program as an SPMD body; at the end every process checks the whole
   memory, and names [label] in a mismatch. *)
let body ~label program ctx =
  let total_words = (program.nlocks + program.nprocs) * program.region_words in
  let me = Svm.Api.pid ctx in
  if me = 0 then ignore (Svm.Api.malloc ctx ~name:"mem" total_words);
  Svm.Api.barrier ctx;
  let mem = Svm.Api.root ctx "mem" in
  List.iter
    (fun op ->
      match op with
      | Locked_add { lock; value } ->
          Svm.Api.lock ctx lock;
          let base = mem + (lock * program.region_words) in
          for i = 0 to program.region_words - 1 do
            Svm.Api.write_int ctx (base + i) (Svm.Api.read_int ctx (base + i) + value)
          done;
          Svm.Api.unlock ctx lock
      | Private_write { round } ->
          let base = mem + ((program.nlocks + me) * program.region_words) in
          for i = 0 to program.region_words - 1 do
            Svm.Api.write_int ctx (base + i) ((round * 100) + i)
          done
      | Do_barrier -> Svm.Api.barrier ctx)
    program.ops.(me);
  Svm.Api.barrier ctx;
  (* every process checks the whole memory *)
  let want = expected program in
  Array.iteri
    (fun i w ->
      let got = Svm.Api.read_int ctx (mem + i) in
      if got <> w then
        failwith (Printf.sprintf "pid %d under %s: mem[%d] = %d, want %d" me label i got w))
    want

(* Paranoid: every diff taken from a written-word log is checked against
   the full scan, and every accessible page holds a full frame. The
   3-40-word locked regions leave pages with logs that hold and logs that
   saturate. *)
let run_program protocol program =
  Svm.Runtime.run
    (Svm.Config.make ~paranoid:true ~nprocs:program.nprocs protocol)
    (body ~label:(Svm.Config.protocol_name protocol) program)

let prop_protocol protocol =
  QCheck.Test.make
    ~name:(Printf.sprintf "random DRF programs correct under %s" (Svm.Config.protocol_name protocol))
    ~count:40 (QCheck.make gen_program)
    (fun program ->
      ignore (run_program protocol program);
      Test_mem.check_sentinel (Svm.Config.protocol_name protocol);
      true)

(* All four protocols also agree on performance determinism: the same
   program yields the same report twice. *)
let prop_repeatable =
  QCheck.Test.make ~name:"random programs are reproducible" ~count:10
    (QCheck.make gen_program) (fun program ->
      let r1 = run_program Svm.Config.Lrc program in
      let r2 = run_program Svm.Config.Lrc program in
      r1.Svm.Runtime.r_elapsed = r2.Svm.Runtime.r_elapsed
      && r1.Svm.Runtime.r_events = r2.Svm.Runtime.r_events)

let suite =
  List.map
    (fun p -> QCheck_alcotest.to_alcotest (prop_protocol p))
    Svm.Config.all_protocols
  @ [ QCheck_alcotest.to_alcotest prop_repeatable ]
