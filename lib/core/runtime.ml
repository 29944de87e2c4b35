type node_report = {
  nr_id : int;
  nr_elapsed : float;
  nr_breakdown : Stats.breakdown;
  nr_counters : Stats.counters;
  nr_mem_peak : int;
  nr_mem_end : int;
  nr_epochs : Stats.breakdown list;
}

type transport_report = { tr_inflight : int; tr_gave_up : int }

type ops_report = {
  or_gets : int;
  or_puts : int;
  or_txns : int;
  or_lats : float array;
      (* completion latencies of every op, sorted ascending; the multiset
         is a pure function of the traffic plan, so the sorted array is
         identical however the nodes interleaved *)
}

type report = {
  r_config : Config.t;
  r_elapsed : float;
  r_nodes : node_report array;
  r_shared_bytes : int;
  r_events : int;
  r_mem_digest : int64;
  r_transport : transport_report option;
  r_failover_stalls : float list;
      (* per re-routed fetch: resume time minus failover time, ascending *)
  r_metrics : Obs.Metrics.t option;
      (* the sampled flight recorder, iff metrics_interval > 0 *)
  r_ops : ops_report option;
      (* serving-workload op log, iff the app recorded operations *)
}

let start_process sys (node : System.node_state) app =
  let ctx = Api.make_ctx sys node in
  let open Effect.Deep in
  match_with app ctx
    {
      retc =
        (fun () -> node.System.finished <- true);
      exnc = (fun exn -> raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | System.Lock_eff l ->
              Some (fun (k : (a, _) continuation) -> Sync.acquire sys node l k)
          | System.Barrier_eff -> Some (fun (k : (a, _) continuation) -> Sync.barrier sys node k)
          | System.Read_fault_eff page ->
              Some (fun (k : (a, _) continuation) -> Faults.read_fault sys node page k)
          | System.Write_fault_eff page ->
              Some (fun (k : (a, _) continuation) -> Faults.write_fault sys node page k)
          | _ -> None);
    }

(* --- no-progress watchdog ------------------------------------------- *)

(* Diagnostic dump raised inside {!System.Deadlock} when the event queue
   drains with unfinished processes: per-node blocked state, pending home
   fetches, lock chains, and the transport's unacknowledged/abandoned
   packets. On a fault-free run a drained-but-stuck engine means mismatched
   synchronization (the classic deadlock); on a chaos run it usually means
   the transport hit its retry cap on a message somebody was waiting for. *)
let stall_dump sys =
  let buf = Buffer.create 256 in
  let nprocs = System.nprocs sys in
  let unfinished = System.blocked_count sys in
  Buffer.add_string buf
    (Printf.sprintf
       "no-progress watchdog: event queue drained with %d of %d processes unfinished" unfinished
       nprocs);
  Array.iter
    (fun (n : System.node_state) ->
      if not n.System.finished then begin
        let state =
          match n.System.blocked with
          | Some System.Wait_data -> "waiting for data"
          | Some System.Wait_lock -> "waiting for a lock"
          | Some System.Wait_barrier -> "waiting at a barrier"
          | Some System.Wait_gc -> "waiting for GC"
          | None -> "not blocked (runtime bug)"
        in
        let liveness = if System.is_alive sys n.System.id then "" else " [killed]" in
        Buffer.add_string buf
          (Printf.sprintf "\n  node %d%s: %s since %.0f us" n.System.id liveness state
             n.System.block_clock)
      end)
    sys.System.nodes;
  (* Per stuck page: where its home is *now*, its replica ranks, and when
     it last failed over — the triage a replicated-run deadlock needs. *)
  let describe_page page =
    let home = System.home_of sys page in
    let ranks =
      match System.replica_ranks sys page with
      | None -> ""
      | Some ranks ->
          Printf.sprintf ", replicas [%s]"
            (String.concat ";"
               (Array.to_list
                  (Array.map
                     (fun r ->
                       Printf.sprintf "%d%s" r
                         (if System.is_alive sys r then "" else " dead"))
                     ranks)))
    in
    let last =
      match (System.dir sys page).System.failover_at with
      | None -> ""
      | Some t -> Printf.sprintf ", failed over at %.0f us" t
    in
    Printf.sprintf "home %d%s%s%s" home
      (if System.is_alive sys home then "" else " (dead)")
      ranks last
  in
  Array.iter
    (fun (n : System.node_state) ->
      Array.iteri
        (fun page (hp : System.home_page option) ->
          match hp with
          | None | Some { System.hp_pending = []; _ } -> ()
          | Some hp ->
              (* Which writers' flushes the parked fetches are short of:
                 [needed > flush] per vector entry. *)
              let missing =
                List.concat_map
                  (fun (pf : System.pending_fetch) ->
                    List.filter_map
                      (fun w ->
                        let need = Proto.Vclock.get pf.System.pf_needed w in
                        let have = Proto.Vclock.get hp.System.hp_flush w in
                        if need > have then Some (Printf.sprintf "writer %d: %d > %d" w need have)
                        else None)
                      (List.init (System.nprocs sys) Fun.id))
                  hp.System.hp_pending
                |> List.sort_uniq compare
              in
              Buffer.add_string buf
                (Printf.sprintf
                   "\n  node %d: %d fetch(es) of page %d waiting for flushes at the home (%s%s)"
                   n.System.id (List.length hp.System.hp_pending) page (describe_page page)
                   (if missing = [] then ""
                    else "; missing " ^ String.concat ", " missing)))
        n.System.homes)
    sys.System.nodes;
  Array.iteri
    (fun page (d : System.page_dir) ->
      match d.System.recovering with
      | None -> ()
      | Some rc ->
          Buffer.add_string buf
            (Printf.sprintf
               "\n  page %d: failover recovery incomplete, %d writer repl(ies) outstanding (%s)"
               page rc.System.rc_outstanding (describe_page page)))
    sys.System.dir;
  (* Every lock some node acquired remotely, in ascending lock order. *)
  let locks =
    Array.to_list sys.System.lock_last
    |> List.mapi (fun lock last -> (lock, last))
    |> List.filter (fun (_, last) -> last >= 0)
  in
  List.iter
    (fun (lock, last) ->
      let states =
        Array.to_list sys.System.nodes
        |> List.filter_map (fun (n : System.node_state) ->
               match
                 if lock < Array.length n.System.locks then n.System.locks.(lock) else None
               with
               | None -> None
               | Some ls ->
                   let flags =
                     List.filter_map Fun.id
                       [
                         (if ls.System.lk_held then Some "held" else None);
                         (if ls.System.lk_token then Some "token" else None);
                         (if ls.System.lk_waiting then Some "acquire in flight" else None);
                         (match ls.System.lk_waiter with
                         | Some (w, _) -> Some (Printf.sprintf "forwards to node %d" w)
                         | None -> None);
                       ]
                   in
                   if flags = [] then None
                   else Some (Printf.sprintf "node %d: %s" n.System.id (String.concat ", " flags)))
      in
      Buffer.add_string buf
        (Printf.sprintf "\n  lock %d: manager %d, last requester %d%s" lock (lock mod nprocs)
           last
           (if states = [] then "" else " [" ^ String.concat "; " states ^ "]")))
    locks;
  (match sys.System.transport with
  | None -> ()
  | Some tr ->
      Buffer.add_string buf
        (Printf.sprintf "\n  transport: %d packet(s) unacknowledged, %d abandoned at the retry cap"
           (Machine.Transport.inflight_count tr)
           (Machine.Transport.gave_up_count tr));
      List.iter
        (fun line -> Buffer.add_string buf ("\n  " ^ line))
        (Machine.Transport.describe_pending tr));
  Buffer.contents buf

(* --- final-memory digest -------------------------------------------- *)

(* FNV-1a over the current copies of every shared page, taking the
   lowest-numbered node's copy as the page's representative (all current
   copies must agree — [Invariants] asserts that in paranoid runs). The
   differential-soundness harness compares this digest between a chaos run
   and its fault-free twin: faults may change timing and traffic, never
   memory contents. Side-effect-free, so computing it cannot perturb the
   report. *)
let memory_digest sys =
  let fnv_prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  let mix x = h := Int64.mul (Int64.logxor !h x) fnv_prime in
  let npages = Mem.Layout.pages_for sys.System.layout sys.System.next_addr in
  for page = 0 to npages - 1 do
    if System.is_scratch sys page then
      mix 0x2545F4914F6CDD1DL (* scratch: content is schedule-dependent *)
    else
      match Invariants.page_currents sys page with
    | [] -> mix 0x9E3779B97F4A7C15L (* no current copy: distinct marker *)
    | currents ->
        let data =
          match
            List.fold_left
              (fun best ((id, _) as cand) ->
                match best with
                | Some (best_id, _) when best_id <= id -> best
                | _ -> Some cand)
              None currents
          with
          | Some (_, data) -> data
          | None -> assert false (* [currents] is non-empty *)
        in
        mix (Int64.of_int page);
        Mem.Words.iter (fun v -> mix (Int64.bits_of_float v)) data
  done;
  !h

(* An LSD radix sort on the IEEE-754 bits, six passes of 11 bits from the
   lowest. Flipping the sign bit of a non-negative float and every bit of
   a negative one gives a key whose unsigned order is the floats' order.
   One sweep counts the digits of all six passes. Each pass scatters
   stably from one array to the other, [a] and [scratch] in turn, so the
   result is back in [a] after the sixth. Floats move unboxed, and so do
   the int64 keys. *)
let radix_bits = 11

let radix_passes = 6

let[@inline] radix_key x =
  let b = Int64.bits_of_float x in
  Int64.logxor b (Int64.logor (Int64.shift_right b 63) Int64.min_int)

let[@inline] key_digit k pass =
  Int64.to_int (Int64.shift_right_logical k (pass * radix_bits)) land ((1 lsl radix_bits) - 1)

(* Sorts [a] using [scratch], at least as long, as the other buffer. *)
let radix_sort a ~scratch =
  let n = Array.length a and buckets = 1 lsl radix_bits in
  assert (Array.length scratch >= n);
  if n > 1 then begin
    let counts = Array.make (radix_passes * buckets) 0 in
    for i = 0 to n - 1 do
      let k = radix_key (Array.unsafe_get a i) in
      for pass = 0 to radix_passes - 1 do
        let c = (pass * buckets) + key_digit k pass in
        Array.unsafe_set counts c (Array.unsafe_get counts c + 1)
      done
    done;
    let src = ref a and dst = ref scratch in
    for pass = 0 to radix_passes - 1 do
      let base = pass * buckets in
      (* The counts become each digit's first slot in [dst]. *)
      let next = ref 0 in
      for d = base to base + buckets - 1 do
        let k = Array.unsafe_get counts d in
        Array.unsafe_set counts d !next;
        next := !next + k
      done;
      let s = !src and t = !dst in
      for i = 0 to n - 1 do
        let x = Array.unsafe_get s i in
        let c = base + key_digit (radix_key x) pass in
        let slot = Array.unsafe_get counts c in
        Array.unsafe_set t slot x;
        Array.unsafe_set counts c (slot + 1)
      done;
      src := t;
      dst := s
    done
  end

let sort_floats a = radix_sort a ~scratch:(Array.create_float (Array.length a))

let collect sys =
  let nodes =
    Array.map
      (fun (n : System.node_state) ->
        {
          nr_id = n.System.id;
          nr_elapsed = n.System.mach.Machine.Node.ck.Machine.Node.clock -. n.System.start_clock;
          nr_breakdown = Stats.breakdown_sub n.System.stats.Stats.b n.System.start_breakdown;
          nr_counters = n.System.stats.Stats.c;
          nr_mem_peak = Mem.Accounting.peak n.System.stats.Stats.proto_mem;
          nr_mem_end = Mem.Accounting.current n.System.stats.Stats.proto_mem;
          nr_epochs = Stats.epoch_deltas n.System.stats;
        })
      sys.System.nodes
  in
  let elapsed = Array.fold_left (fun acc n -> Float.max acc n.nr_elapsed) 0. nodes in
  {
    r_config = sys.System.cfg;
    r_elapsed = elapsed;
    r_nodes = nodes;
    r_shared_bytes = System.shared_bytes sys;
    r_events = Sim.Engine.executed sys.System.engine;
    r_mem_digest = memory_digest sys;
    r_transport =
      (match sys.System.transport with
      | None -> None
      | Some tr ->
          Some
            {
              tr_inflight = Machine.Transport.inflight_count tr;
              tr_gave_up = Machine.Transport.gave_up_count tr;
            });
    r_failover_stalls = List.sort compare sys.System.failover_stalls;
    r_metrics = System.metrics_registry sys;
    r_ops =
      (match System.serving_log sys with
      | None -> None
      | Some s ->
          (* The log is dead once copied out: it is the sort's scratch. *)
          let lats = Array.sub s.System.sv_lats 0 s.System.sv_count in
          radix_sort lats ~scratch:s.System.sv_lats;
          Some
            {
              or_gets = s.System.sv_gets;
              or_puts = s.System.sv_puts;
              or_txns = s.System.sv_txns;
              or_lats = lats;
            });
  }

let run ?sink cfg app =
  let sys = System.create cfg in
  sys.System.sink <- sink;
  let live_unfinished () =
    Array.exists
      (fun (n : System.node_state) -> (not n.System.finished) && System.is_alive sys n.System.id)
      sys.System.nodes
  in
  if Config.metrics_enabled cfg then begin
    let interval = cfg.Config.metrics_interval in
    let reg =
      Obs.Metrics.create ~interval ~nnodes:cfg.Config.nprocs
    in
    System.install_metrics sys reg;
    (* Gauge sampler on the metrics cadence. Self-rescheduling events would
       keep the engine spinning forever (killed nodes never finish, and the
       deadlock watchdog relies on the queue draining), so a tick re-arms
       only while some live process is unfinished AND the run is moving:
       either events beyond this tick are already pending, or some executed
       since the previous tick. On quiescence the sampler stops and the
       watchdog sees exactly the drained queue it expects. *)
    let last_executed = ref 0 in
    let rec tick k () =
      let time = float_of_int k *. interval in
      System.sample_metrics sys ~time;
      let executed = Sim.Engine.executed sys.System.engine in
      let progressed = executed - !last_executed > 1 in
      last_executed := executed;
      if live_unfinished () && (progressed || Sim.Engine.pending sys.System.engine > 0) then
        Sim.Engine.schedule sys.System.engine
          ~at:(float_of_int (k + 1) *. interval)
          (tick (k + 1))
    in
    Sim.Engine.schedule sys.System.engine ~at:interval (tick 1)
  end;
  Array.iter
    (fun node ->
      Sim.Engine.schedule sys.System.engine ~at:0. (fun () -> start_process sys node app))
    sys.System.nodes;
  (* The node-fault schedule: crash-stop each victim at its kill time and,
     under the oracle detector, fire deterministic failover one detection
     delay later. Runs with a kill but no message chaos stay on the fast
     send path — the kill itself is not a transport concern. Under the
     heartbeat detector the oracle stays silent: failover happens only when
     a suspicion quorum forms ({!Replica.suspect}). *)
  List.iter
    (fun (victim, kill_at) ->
      Sim.Engine.schedule sys.System.engine ~at:kill_at (fun () ->
          System.kill_node sys ~node:victim ~time:kill_at);
      if cfg.Config.detector = Config.Oracle then begin
        let detect = kill_at +. cfg.Config.chaos.Machine.Chaos.detect_delay in
        Sim.Engine.schedule sys.System.engine ~at:detect (fun () ->
            Replica.failover sys ~dead:victim ~at:detect)
      end)
    (Machine.Chaos.kills cfg.Config.chaos);
  (match (cfg.Config.detector, sys.System.transport) with
  | Config.Oracle, _ | _, None -> ()
  | Config.Heartbeat, Some tr ->
      (* Heartbeats are self-rescheduling events, so left alone they would
         keep a deadlocked engine spinning forever and starve the no-
         progress watchdog. [active] therefore also recognizes a run that
         can never move again — every fault transition is in the past with
         the detection window over, every live unfinished node is blocked
         and nothing is in flight (a recovery stuck in that state is stuck
         for good: its pulls either landed or gave up) — and stops the
         ticks so the queue drains into the watchdog's diagnosis. *)
      let fault_horizon =
        List.fold_left
          (fun acc f ->
            match f with
            | Machine.Chaos.Kill { at; _ } -> Float.max acc at
            | Machine.Chaos.Pause { until; _ } | Machine.Chaos.Partition { until; _ } ->
                Float.max acc until)
          0. cfg.Config.chaos.Machine.Chaos.faults
      in
      let interval = cfg.Config.hb_interval in
      let timeout = Config.hb_timeout_effective cfg in
      let quiet_after = fault_horizon +. timeout +. (10. *. interval) in
      let wedged () =
        System.now sys > quiet_after
        && Array.for_all
             (fun (n : System.node_state) ->
               n.System.finished
               || (not (System.is_alive sys n.System.id))
               || n.System.blocked <> None)
             sys.System.nodes
        && Machine.Transport.inflight_count tr = 0
      in
      Machine.Transport.start_heartbeats tr ~nprocs:cfg.Config.nprocs ~interval ~timeout
        ~active:(fun () -> live_unfinished () && not (wedged ()))
        ~on_silent:(fun ~by ~peer ~time -> Replica.suspect sys ~by ~peer ~at:time)
        ~on_heard:(fun ~by ~peer ~time -> Replica.refute sys ~by ~peer ~at:time));
  ignore (Sim.Engine.run sys.System.engine);
  if live_unfinished () then begin
    (* The watchdog: a quiescent engine with unfinished processes can never
       make progress again. Emit a trace event, then fail loudly with the
       full diagnosis instead of silently returning a truncated report. *)
    let inflight =
      match sys.System.transport with
      | Some tr -> Machine.Transport.inflight_count tr
      | None -> 0
    in
    if System.observing sys then
      System.event_at sys ~node:0 ~time:(System.now sys)
        (Obs.Trace.Watchdog_stall { blocked = System.blocked_count sys; inflight });
    raise (System.Deadlock (stall_dump sys))
  end;
  (* Close the timeline: one last gauge sample at the run's end time, so
     the final bucket reflects the drained state. *)
  System.sample_metrics sys ~time:(System.now sys);
  collect sys

let mean_compute r =
  let total =
    Array.fold_left (fun acc n -> acc +. n.nr_breakdown.Stats.compute) 0. r.r_nodes
  in
  total /. float_of_int (Array.length r.r_nodes)

let sum r f = Array.fold_left (fun acc n -> acc + f n.nr_counters) 0 r.r_nodes

let total_messages r = sum r (fun c -> c.Stats.messages)

let total_update_bytes r = sum r (fun c -> c.Stats.update_bytes)

let total_protocol_bytes r = sum r (fun c -> c.Stats.protocol_bytes)

let throughput r =
  match r.r_ops with
  | Some ops when r.r_elapsed > 0. ->
      float_of_int (Array.length ops.or_lats) /. (r.r_elapsed /. 1_000_000.)
  | _ -> 0.

let max_mem_peak r = Array.fold_left (fun acc n -> max acc n.nr_mem_peak) 0 r.r_nodes
