type protocol = Lrc | Olrc | Hlrc | Ohlrc | Aurc | Rc

let all_protocols = [ Lrc; Olrc; Hlrc; Ohlrc ]

let extended_protocols = [ Lrc; Olrc; Hlrc; Ohlrc; Aurc; Rc ]

let protocol_name = function
  | Lrc -> "LRC"
  | Olrc -> "OLRC"
  | Hlrc -> "HLRC"
  | Ohlrc -> "OHLRC"
  | Aurc -> "AURC"
  | Rc -> "RC"

(* The canonical command-line spellings, derived from the one protocol
   list so help/error text can never drift from what the parser accepts. *)
let protocol_strings =
  List.map (fun p -> String.lowercase_ascii (protocol_name p)) extended_protocols

let protocol_of_string s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun p -> String.lowercase_ascii (protocol_name p) = s) extended_protocols

(* Position in [extended_protocols]: the paper's LRC/OLRC/HLRC/OHLRC column
   order (then AURC, RC), used wherever cells must sort the way the tables
   read rather than alphabetically. *)
let protocol_rank p =
  let rec go i = function
    | [] -> assert false (* extended_protocols enumerates every constructor *)
    | q :: tl -> if q = p then i else go (i + 1) tl
  in
  go 0 extended_protocols

let home_based = function Hlrc | Ohlrc | Aurc -> true | Lrc | Olrc | Rc -> false

let overlapped = function Olrc | Ohlrc -> true | Lrc | Hlrc | Aurc | Rc -> false

type home_policy = Round_robin | Block | Allocator

let home_policy_name = function
  | Round_robin -> "round_robin"
  | Block -> "block"
  | Allocator -> "allocator"

type repl_scheme = Inval | Backup

let repl_scheme_name = function Inval -> "inval" | Backup -> "backup"

let repl_scheme_strings = List.map repl_scheme_name [ Inval; Backup ]

let repl_scheme_of_string s =
  match String.lowercase_ascii s with
  | "inval" -> Some Inval
  | "backup" -> Some Backup
  | _ -> None

type detector = Oracle | Heartbeat

let detector_name = function Oracle -> "oracle" | Heartbeat -> "heartbeat"

let detector_strings = List.map detector_name [ Oracle; Heartbeat ]

let detector_of_string s =
  match String.lowercase_ascii s with
  | "oracle" -> Some Oracle
  | "heartbeat" -> Some Heartbeat
  | _ -> None

type t = {
  nprocs : int;
  protocol : protocol;
  page_words : int;
  costs : Machine.Costs.t;
  home_policy : home_policy;
  gc_threshold_bytes : int;
  coproc_locks : bool;
  home_migration : bool;
  paranoid : bool;
  chaos : Machine.Chaos.params;
  trace_spans : bool;
  fault_batch : int;
  replicas : int;
  repl_scheme : repl_scheme;
  metrics_interval : float;
  detector : detector;
  hb_interval : float;
  hb_timeout : float;
}

let chaos_enabled t = Machine.Chaos.enabled t.chaos

(* The reliable transport is needed whenever chaos can reorder or lose
   traffic — and for the heartbeat detector, whose pings and healing
   retransmissions ride on it even in an otherwise fault-free run. *)
let transport_enabled t = chaos_enabled t || t.detector = Heartbeat

(* Effective suspicion timeout: the explicit [--hb-timeout], or sized so a
   healthy peer can never be suspected — the observer's audit runs once per
   interval, a ping can lag one interval plus the worst jitter spike each
   way, and a little slack for the transfer itself. *)
let hb_timeout_effective t =
  if t.hb_timeout > 0. then t.hb_timeout
  else (3. *. t.hb_interval) +. (2. *. Machine.Chaos.max_delay t.chaos) +. 100.

let metrics_enabled t = t.metrics_interval > 0.

(* 200 us auto-sizes the suspicion timeout to 700 us on a jitter-free
   network. *)
let default_hb_interval = 200.

let power_of_two n = n > 0 && n land (n - 1) = 0

(* The fault schedule kind-major: the kills, then the pauses, then the
   partitions, each kind in the order given. That is the order svm_run's
   flags build, so a replay line parses back to an equal config. *)
let kind_major faults =
  let rank = function
    | Machine.Chaos.Kill _ -> 0
    | Machine.Chaos.Pause _ -> 1
    | Machine.Chaos.Partition _ -> 2
  in
  List.stable_sort (fun a b -> Int.compare (rank a) (rank b)) faults

let make ?(page_words = 1024) ?(costs = Machine.Costs.default)
    ?(home_policy = Round_robin) ?(gc_threshold_bytes = 2 * 1024 * 1024)
    ?(coproc_locks = false) ?(home_migration = false)
    ?(paranoid = false) ?(chaos = Machine.Chaos.none)
    ?(trace_spans = false) ?(fault_batch = 1) ?(replicas = 1)
    ?(repl_scheme = Inval) ?(metrics_interval = 0.) ?(detector = Oracle)
    ?(hb_interval = default_hb_interval) ?(hb_timeout = 0.) ~nprocs protocol =
  if nprocs <= 0 then
    invalid_arg (Printf.sprintf "Config.make: nprocs must be positive (got %d)" nprocs);
  if not (power_of_two page_words) then
    invalid_arg
      (Printf.sprintf "Config.make: page_words must be a positive power of two (got %d)"
         page_words);
  if gc_threshold_bytes <= 0 then
    invalid_arg
      (Printf.sprintf "Config.make: gc_threshold_bytes must be positive (got %d)"
         gc_threshold_bytes);
  if fault_batch < 1 then
    invalid_arg
      (Printf.sprintf "Config.make: fault_batch must be at least 1 (got %d)" fault_batch);
  if not (metrics_interval >= 0.) then
    invalid_arg
      (Printf.sprintf "Config.make: metrics_interval must be >= 0 (got %g)" metrics_interval);
  (match Machine.Chaos.validate chaos with
  | Ok () -> ()
  | Error e -> invalid_arg ("Config.make: " ^ e));
  if replicas < 1 then
    invalid_arg (Printf.sprintf "Config.make: replicas must be at least 1 (got %d)" replicas);
  if replicas > nprocs then
    invalid_arg
      (Printf.sprintf "Config.make: replicas must not exceed nprocs (got %d > %d)" replicas
         nprocs);
  if replicas > 1 && (protocol = Aurc || protocol = Rc) then
    invalid_arg
      (Printf.sprintf
         "Config.make: home replication is not supported for %s (write-through masters \
          have no single update stream to replicate)"
         (protocol_name protocol));
  if replicas > 1 && home_migration then
    invalid_arg
      "Config.make: home replication and home migration are mutually exclusive (both \
       rewrite the home directory)";
  if home_migration && Machine.Chaos.kills chaos <> [] then
    invalid_arg
      "Config.make: home migration does not survive a kill (a barrier waits for its page \
       transfers, and one to or from a dead node never lands)";
  (* Shape/node-0 checks live in [Chaos.validate] (run above); only the
     nprocs-dependent range checks belong here. *)
  List.iter
    (fun f ->
      let check kind node =
        if node >= nprocs then
          invalid_arg
            (Printf.sprintf "Config.make: %s node %d out of range (nprocs %d)" kind node
               nprocs)
      in
      match f with
      | Machine.Chaos.Kill { node; _ } -> check "kill" node
      | Machine.Chaos.Pause { node; _ } -> check "pause" node
      | Machine.Chaos.Partition { group; _ } ->
          List.iter (check "partition") group;
          (* [group] is repeat-free (checked above), so this is "all nodes". *)
          if List.length group >= nprocs then
            invalid_arg "Config.make: partition group must leave the other side non-empty")
    chaos.Machine.Chaos.faults;
  if not (hb_interval > 0.) then
    invalid_arg
      (Printf.sprintf "Config.make: hb_interval must be positive (got %g)" hb_interval);
  if not (hb_timeout >= 0.) then
    invalid_arg
      (Printf.sprintf "Config.make: hb_timeout must be >= 0 (got %g)" hb_timeout);
  {
    nprocs;
    protocol;
    page_words;
    costs;
    home_policy;
    gc_threshold_bytes;
    coproc_locks;
    home_migration;
    paranoid;
    chaos = { chaos with Machine.Chaos.faults = kind_major chaos.Machine.Chaos.faults };
    trace_spans;
    fault_batch;
    replicas;
    repl_scheme;
    metrics_interval;
    detector;
    hb_interval;
    hb_timeout;
  }
