(* Seeded fault plan for network chaos and CPU stragglers. "Fault" here
   means an injected infrastructure failure (lost/duplicated/late message,
   slow CPU, crashed/paused/partitioned node) — page faults, the SVM
   access-detection mechanism, live in [Svm.Faults].

   Determinism: every directed link (src, dst) draws from its own splitmix64
   stream seeded as [mix(fault_seed, src * nprocs + dst)], and each node's
   slowdown comes from a dedicated stream, so verdicts depend only on the
   fault seed and the sequence of sends on that one link. *)

type fault =
  | Kill of { node : int; at : float }
  | Pause of { node : int; from_ : float; until : float }
  | Partition of { group : int list; from_ : float; until : float }

type params = {
  drop_rate : float;
  dup_rate : float;
  jitter : float;
  straggler : float;
  fault_seed : int;
  faults : fault list;
  detect_delay : float;
}

let none =
  {
    drop_rate = 0.;
    dup_rate = 0.;
    jitter = 0.;
    straggler = 1.0;
    fault_seed = 0;
    faults = [];
    detect_delay = 500.;
  }

let kills p =
  List.filter_map (function Kill { node; at } -> Some (node, at) | _ -> None) p.faults
  |> List.sort (fun (_, a) (_, b) -> compare a b)

(* The one spelling of a fault: svm_run's flags read it, the report lists
   it, and replay lines print it. [%.17g] prints a time that parses back
   to the same float. *)
let to_string = function
  | Kill { node; at } -> Printf.sprintf "kill %d@%.17g" node at
  | Pause { node; from_; until } -> Printf.sprintf "pause %d@%.17g:%.17g" node from_ until
  | Partition { group; from_; until } ->
      Printf.sprintf "partition %s@%.17g:%.17g"
        (String.concat "," (List.map string_of_int group))
        from_ until

let of_string s =
  let scan fmt k =
    try Some (Scanf.sscanf s fmt k) with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
  in
  let group g = List.map int_of_string (String.split_on_char ',' g) in
  [
    scan "kill %d@%f%!" (fun node at -> Kill { node; at });
    scan "pause %d@%f:%f%!" (fun node from_ until -> Pause { node; from_; until });
    scan "partition %[0-9,]@%f:%f%!" (fun g from_ until ->
        Partition { group = group g; from_; until });
  ]
  |> List.find_map Fun.id
  |> Option.to_result
       ~none:
         (Printf.sprintf "malformed fault %S (kill N@T, pause N@T1:T2 or partition A,B@T1:T2)"
            s)

(* Kills are deliberately *not* part of [enabled]: a kill silences links and
   triggers failover but must not install the reliable transport (whose
   retransmission machinery would perturb the surviving traffic); pauses and
   partitions are gray failures that heal, which only the transport's
   retransmissions can deliver through. *)
let enabled p =
  p.drop_rate > 0. || p.dup_rate > 0. || p.jitter > 0. || p.straggler > 1.0
  || List.exists (function Kill _ -> false | Pause _ | Partition _ -> true) p.faults

let validate p =
  let prob name x =
    if Float.is_nan x || x < 0. || x > 1. then
      Error (Printf.sprintf "%s must be a probability in [0, 1] (got %g)" name x)
    else Ok ()
  in
  let ( let* ) = Result.bind in
  let* () = prob "drop rate" p.drop_rate in
  let* () = prob "duplication rate" p.dup_rate in
  let* () =
    if Float.is_nan p.jitter || p.jitter < 0. then
      Error (Printf.sprintf "jitter must be non-negative (got %g)" p.jitter)
    else Ok ()
  in
  let* () =
    if Float.is_nan p.straggler || p.straggler < 1.0 then
      Error (Printf.sprintf "straggler multiplier must be >= 1.0 (got %g)" p.straggler)
    else Ok ()
  in
  let check_fault = function
    | Kill { node; at } ->
        if node = 0 then
          Error "kill cannot name node 0 (the lock/barrier manager)"
        else if node < 0 then Error (Printf.sprintf "kill node must be >= 0 (got %d)" node)
        else if Float.is_nan at || at < 0. then
          Error (Printf.sprintf "kill time must be non-negative (got %g)" at)
        else Ok ()
    | Pause { node; from_; until } ->
        if node = 0 then
          Error "pause cannot name node 0 (the lock/barrier manager)"
        else if node < 0 then Error (Printf.sprintf "pause node must be >= 0 (got %d)" node)
        else if Float.is_nan from_ || Float.is_nan until || from_ < 0. || until < from_
        then
          Error
            (Printf.sprintf "pause window must satisfy 0 <= from <= until (got %g..%g)"
               from_ until)
        else Ok ()
    | Partition { group; from_; until } ->
        if group = [] then Error "partition group must name at least one node"
        else if List.exists (fun n -> n < 0) group then
          Error "partition group nodes must be >= 0"
        else if List.length (List.sort_uniq compare group) <> List.length group then
          Error "partition group must not repeat a node"
        else if Float.is_nan from_ || Float.is_nan until || from_ < 0. || until < from_
        then
          Error
            (Printf.sprintf
               "partition window must satisfy 0 <= from <= until (got %g..%g)" from_
               until)
        else Ok ()
  in
  let* () =
    List.fold_left
      (fun acc f -> Result.bind acc (fun () -> check_fault f))
      (Ok ()) p.faults
  in
  (* A pause window that still holds a node when its kill fires is two
     schedules fighting over one machine: refuse it outright. *)
  let* () =
    List.fold_left
      (fun acc f ->
        Result.bind acc (fun () ->
            match f with
            | Pause { node; from_; until } ->
                let clash =
                  List.find_map
                    (function
                      | Kill { node = n; at } when n = node && from_ <= at && at < until ->
                          Some at
                      | _ -> None)
                    p.faults
                in
                (match clash with
                | Some at ->
                    Error
                      (Printf.sprintf
                         "node %d's pause window [%g, %g) overlaps its kill at %g" node
                         from_ until at)
                | None -> Ok ())
            | _ -> Ok ()))
      (Ok ()) p.faults
  in
  if Float.is_nan p.detect_delay || p.detect_delay < 0. then
    Error (Printf.sprintf "detect delay must be non-negative (got %g)" p.detect_delay)
  else Ok ()

(* [silenced p ~node ~time]: the node-fault schedule has this node's links
   down at [time] (killed for good, or inside a pause window). Partitions
   are a link property, not a node property — see [severed]. The kill
   clause is not the runtime's liveness record: a send is judged at its
   send time, which can lie ahead of the engine's clock and of the kill. *)
let silenced p ~node ~time =
  List.exists
    (function
      | Kill { node = n; at } -> n = node && time >= at
      | Pause { node = n; from_; until } -> n = node && time >= from_ && time < until
      | Partition _ -> false)
    p.faults

(* One spike in [spike_one_in] jittered messages lands [spike_factor] times
   further out: a crude heavy tail (congestion burst, route flap). *)
let spike_one_in = 64

let spike_factor = 8.0

type verdict = { drop : bool; duplicate : bool; delay : float; dup_delay : float }

type t = {
  p : params;
  nprocs : int;
  links : (int, Sim.Rng.t) Hashtbl.t;  (* src * nprocs + dst -> stream *)
  backoff : (int, Sim.Rng.t) Hashtbl.t;  (* link -> RTO-jitter stream *)
  slowdowns : float array;  (* per-node CPU multiplier, drawn at create *)
  parts : (bool array * float * float) array;  (* membership, from, until *)
}

let params t = t.p

let create p ~nprocs =
  (match validate p with Ok () -> () | Error e -> invalid_arg ("Chaos.create: " ^ e));
  if nprocs <= 0 then invalid_arg "Chaos.create: nprocs must be positive";
  let slowdowns =
    if p.straggler = 1.0 then Array.make nprocs 1.0
    else begin
      let rng = Sim.Rng.create ~seed:(p.fault_seed + 0x5707) in
      Array.init nprocs (fun _ -> 1.0 +. Sim.Rng.float rng (p.straggler -. 1.0))
    end
  in
  let parts =
    List.filter_map
      (function
        | Partition { group; from_; until } ->
            let side = Array.make nprocs false in
            List.iter
              (fun n ->
                if n >= nprocs then
                  invalid_arg
                    (Printf.sprintf "Chaos.create: partition node %d out of range (%d nodes)" n
                       nprocs);
                side.(n) <- true)
              group;
            if Array.for_all Fun.id side then
              invalid_arg "Chaos.create: partition group must leave the other side non-empty";
            Some (side, from_, until)
        | Kill _ | Pause _ -> None)
      p.faults
    |> Array.of_list
  in
  { p; nprocs; links = Hashtbl.create 64; backoff = Hashtbl.create 64; slowdowns; parts }

let link_rng t ~src ~dst =
  let key = (src * t.nprocs) + dst in
  match Hashtbl.find_opt t.links key with
  | Some rng -> rng
  | None ->
      let rng = Sim.Rng.create ~seed:((t.p.fault_seed * 0x10001) + key) in
      Hashtbl.replace t.links key rng;
      rng

let one_delay t rng =
  if t.p.jitter = 0. then 0.
  else begin
    let d = Sim.Rng.float rng t.p.jitter in
    if Sim.Rng.int rng spike_one_in = 0 then d *. spike_factor else d
  end

let judge t ~src ~dst =
  let rng = link_rng t ~src ~dst in
  (* Fixed draw order so the stream stays aligned across outcomes. *)
  let drop = t.p.drop_rate > 0. && Sim.Rng.float rng 1.0 < t.p.drop_rate in
  let duplicate = t.p.dup_rate > 0. && Sim.Rng.float rng 1.0 < t.p.dup_rate in
  let delay = one_delay t rng in
  let dup_delay = one_delay t rng in
  { drop; duplicate; delay; dup_delay }

(* RTO backoff jitter: a dedicated per-link stream (salted differently from
   the verdict stream, so backoff draws never shift message verdicts) in
   [0.75, 1.25) — after a partition heals, every stranded sender's timer
   fires, and without jitter they retransmit in lockstep. *)
let backoff_factor t ~src ~dst =
  let key = (src * t.nprocs) + dst in
  let rng =
    match Hashtbl.find_opt t.backoff key with
    | Some rng -> rng
    | None ->
        let rng = Sim.Rng.create ~seed:((t.p.fault_seed * 0x3d0f5) + key + 0x42b) in
        Hashtbl.replace t.backoff key rng;
        rng
  in
  0.75 +. Sim.Rng.float rng 0.5

(* [severed t ~src ~dst ~time]: some active partition puts [src] and [dst]
   on opposite sides of the cut. A partition's [group] names one side;
   every node not in it is on the other. *)
let severed t ~src ~dst ~time =
  let n = Array.length t.parts in
  let rec go i =
    i < n
    &&
    let side, from_, until = t.parts.(i) in
    (time >= from_ && time < until && side.(src) <> side.(dst)) || go (i + 1)
  in
  go 0

let slowdown t ~node = t.slowdowns.(node)

let max_delay p = p.jitter *. spike_factor
