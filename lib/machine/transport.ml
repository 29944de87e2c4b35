(* Reliable FIFO transport over a chaotic network: per-link sequence
   numbers, receiver dedup + reorder buffer, cumulative acks, and sender
   retransmission with exponential backoff up to a retry cap.

   Everything observable is reported through [notify]; the transport keeps
   no statistics of its own and never raises — an abandoned packet is
   recorded and surfaced via [describe_pending] so a watchdog can diagnose
   the stall if anyone was actually waiting on it. *)

type notice =
  | Dropped of { src : int; dst : int; seq : int; bytes : int; ack : bool }
  | Duplicated of { src : int; dst : int; seq : int }
  | Retransmit of { src : int; dst : int; seq : int; retries : int; bytes : int; rto : float }
  | Dup_dropped of { src : int; dst : int; seq : int }
  | Ack_sent of { src : int; dst : int; upto : int }
  | Gave_up of { src : int; dst : int; seq : int; retries : int }
  | Peer_dead of { src : int; dst : int; seq : int; bytes : int }

let seq_bytes = 8

let ack_bytes = 16

(* Pooled: a transport recycles packet records through a free list. A
   packet may be captured by scheduled closures (retransmission timers,
   in-flight copies) that fire after the ack, so recycling is refcounted:
   [p_refs] counts pending closures, and a packet returns to the pool only
   when the last one fires with the packet no longer in flight. The
   handler is swapped for a dummy at that point so a pooled husk never
   pins an application closure (same discipline as the event queues). *)
type packet = {
  mutable p_seq : int;
  mutable p_bytes : int;
  mutable p_handler : float -> unit;
  mutable p_retries : int;
  mutable p_rto : float;
  mutable p_refs : int;
}

type link = {
  l_src : int;
  l_dst : int;
  mutable l_next_seq : int;  (* sender: next sequence number to assign *)
  l_inflight : (int, packet) Hashtbl.t;  (* sender: sent, not yet acked *)
  mutable l_expected : int;  (* receiver: next in-order sequence number *)
  l_reorder : (int, float -> unit) Hashtbl.t;  (* receiver: seq -> handler *)
  mutable l_last_deliver : float;  (* receiver: FIFO clamp *)
  mutable l_gave_up : (int * int) list;  (* (seq, retries), newest first *)
}

type t = {
  engine : Sim.Engine.t;
  net : Network.t;
  chaos : Chaos.t;
  max_retries : int;
  notify : time:float -> notice -> unit;
  links : (int * int, link) Hashtbl.t;
  mutable pool : packet list;  (* free packets, recycled by [release] *)
  dead : (int, unit) Hashtbl.t;  (* crash-stopped peers, via [kill_peer] *)
}

let create ~engine ~net ~chaos ?(max_retries = 10) ~notify () =
  {
    engine;
    net;
    chaos;
    max_retries;
    notify;
    links = Hashtbl.create 64;
    pool = [];
    dead = Hashtbl.create 4;
  }

(* A node's links are down at [time] if it crash-stopped or sits inside a
   pause (gray-failure) window of the chaos schedule. *)
let down_at t node ~time =
  Hashtbl.mem t.dead node || Chaos.silenced (Chaos.params t.chaos) ~node ~time

(* A directed link is cut at [time] if an active partition puts its
   endpoints on opposite sides. Checked at both ends of every copy's
   flight, so a partition also guillotines copies already in the air. *)
let severed t ~src ~dst ~time = Chaos.severed_t t.chaos ~src ~dst ~time

let dummy_handler (_ : float) = ()

(* Drop one closure's claim on [p]; recycle once nothing can fire for it.
   While a packet is in flight its retransmission timer always holds a
   reference, so an in-flight packet is never recycled. *)
let release t l (p : packet) =
  p.p_refs <- p.p_refs - 1;
  if p.p_refs = 0 && not (Hashtbl.mem l.l_inflight p.p_seq) then begin
    p.p_handler <- dummy_handler;
    t.pool <- p :: t.pool
  end

let alloc_packet t ~seq ~bytes ~handler ~rto =
  match t.pool with
  | p :: rest ->
      t.pool <- rest;
      p.p_seq <- seq;
      p.p_bytes <- bytes;
      p.p_handler <- handler;
      p.p_retries <- 0;
      p.p_rto <- rto;
      p
  | [] ->
      { p_seq = seq; p_bytes = bytes; p_handler = handler; p_retries = 0; p_rto = rto; p_refs = 0 }

let link t ~src ~dst =
  match Hashtbl.find_opt t.links (src, dst) with
  | Some l -> l
  | None ->
      let l =
        {
          l_src = src;
          l_dst = dst;
          l_next_seq = 0;
          l_inflight = Hashtbl.create 8;
          l_expected = 0;
          l_reorder = Hashtbl.create 8;
          l_last_deliver = 0.;
          l_gave_up = [];
        }
      in
      Hashtbl.replace t.links (src, dst) l;
      l

(* Initial retransmission timeout: a generous round trip (payload out, ack
   back) plus headroom for the worst jitter spike on both legs, so a
   healthy exchange almost never fires the timer. *)
let initial_rto t l ~bytes =
  let fwd =
    Network.transfer_time t.net ~src:l.l_src ~dst:l.l_dst ~bytes:(bytes + seq_bytes)
  in
  let back = Network.transfer_time t.net ~src:l.l_dst ~dst:l.l_src ~bytes:ack_bytes in
  (2.0 *. (fwd +. back)) +. (2.0 *. Chaos.max_delay t.chaos) +. 100.

(* --- receiver ------------------------------------------------------- *)

(* The ack is cumulative ([upto] = contiguous prefix delivered) plus
   selective ([received] = the seq of the copy that triggered it): a packet
   held in the reorder buffer — possibly for a long time, since a link's
   sequence order follows send-call order while send timestamps need not be
   monotone — must still stop its sender's retransmission timer. *)
let send_ack t l ~at ~received =
  let upto = l.l_expected - 1 in
  t.notify ~time:at (Ack_sent { src = l.l_src; dst = l.l_dst; upto });
  let v = Chaos.judge t.chaos ~src:l.l_dst ~dst:l.l_src in
  let transfer = Network.transfer_time t.net ~src:l.l_dst ~dst:l.l_src ~bytes:ack_bytes in
  let deliver_copy delay =
    Sim.Engine.schedule t.engine ~at:(at +. transfer +. delay) (fun () ->
        let now = Sim.Engine.now t.engine in
        if
          (not (down_at t l.l_src ~time:now))
          && not (severed t ~src:l.l_dst ~dst:l.l_src ~time:now)
        then begin
          let acked =
            Hashtbl.fold (fun seq _ acc -> if seq <= upto then seq :: acc else acc) l.l_inflight []
          in
          List.iter (Hashtbl.remove l.l_inflight) acked;
          Hashtbl.remove l.l_inflight received
        end)
  in
  if
    v.Chaos.drop || down_at t l.l_dst ~time:at
    || severed t ~src:l.l_dst ~dst:l.l_src ~time:at
  then
    t.notify ~time:at
      (Dropped { src = l.l_src; dst = l.l_dst; seq = upto; bytes = ack_bytes; ack = true })
  else deliver_copy v.Chaos.delay;
  if v.Chaos.duplicate then deliver_copy v.Chaos.dup_delay

let deliver t l handler ~at =
  (* Per-link FIFO clamp, as on the lossless path: a delivery never lands
     at or before the previous one on the same link. *)
  let slot = if at <= l.l_last_deliver then l.l_last_deliver +. 1e-6 else at in
  l.l_last_deliver <- slot;
  Sim.Engine.schedule t.engine ~at:slot (fun () ->
      if not (Hashtbl.mem t.dead l.l_dst) then handler slot)

let receive t l ~seq ~handler ~at =
  if seq < l.l_expected || Hashtbl.mem l.l_reorder seq then
    (* Duplicate (retransmission of something already delivered/buffered). *)
    t.notify ~time:at (Dup_dropped { src = l.l_src; dst = l.l_dst; seq })
  else begin
    Hashtbl.replace l.l_reorder seq handler;
    (* Drain the in-order prefix; a gap leaves later packets buffered. *)
    while Hashtbl.mem l.l_reorder l.l_expected do
      let h = Hashtbl.find l.l_reorder l.l_expected in
      Hashtbl.remove l.l_reorder l.l_expected;
      l.l_expected <- l.l_expected + 1;
      deliver t l h ~at
    done
  end;
  (* One ack per received copy (also re-acks duplicates, which is what
     unblocks a sender whose original ack was lost). *)
  send_ack t l ~at ~received:seq

(* --- sender --------------------------------------------------------- *)

let transmit t l (p : packet) ~at =
  let v = Chaos.judge t.chaos ~src:l.l_src ~dst:l.l_dst in
  let transfer =
    Network.transfer_time t.net ~src:l.l_src ~dst:l.l_dst ~bytes:(p.p_bytes + seq_bytes)
  in
  let copy delay =
    p.p_refs <- p.p_refs + 1;
    Sim.Engine.schedule t.engine
      ~at:(at +. transfer +. delay)
      (fun () ->
        let seq = p.p_seq and bytes = p.p_bytes and handler = p.p_handler in
        release t l p;
        let now = Sim.Engine.now t.engine in
        if Hashtbl.mem t.dead l.l_dst then
          t.notify ~time:now (Peer_dead { src = l.l_src; dst = l.l_dst; seq; bytes })
        else if
          down_at t l.l_dst ~time:now
          || severed t ~src:l.l_src ~dst:l.l_dst ~time:now
        then
          (* Paused receiver or partitioned link: the copy is lost;
             retransmission heals it once the fault clears. *)
          t.notify ~time:now
            (Dropped { src = l.l_src; dst = l.l_dst; seq; bytes; ack = false })
        else receive t l ~seq ~handler ~at:now)
  in
  if
    v.Chaos.drop || down_at t l.l_src ~time:at
    || severed t ~src:l.l_src ~dst:l.l_dst ~time:at
  then
    t.notify ~time:at
      (Dropped { src = l.l_src; dst = l.l_dst; seq = p.p_seq; bytes = p.p_bytes; ack = false })
  else copy v.Chaos.delay;
  if v.Chaos.duplicate then begin
    t.notify ~time:at (Duplicated { src = l.l_src; dst = l.l_dst; seq = p.p_seq });
    copy v.Chaos.dup_delay
  end

let rec arm_timer t l (p : packet) ~at =
  p.p_refs <- p.p_refs + 1;
  (* Seeded per-link jitter on the armed delay (the nominal [p_rto] keeps
     doubling cleanly): without it, every sender stranded by a partition
     fires its timer in lockstep when the link heals — a synchronized
     retransmit storm. *)
  let delay = p.p_rto *. Chaos.backoff_factor t.chaos ~src:l.l_src ~dst:l.l_dst in
  Sim.Engine.schedule t.engine ~at:(at +. delay) (fun () ->
      if not (Hashtbl.mem l.l_inflight p.p_seq) then release t l p
      else begin
        let now = Sim.Engine.now t.engine in
        if p.p_retries >= t.max_retries then begin
          Hashtbl.remove l.l_inflight p.p_seq;
          l.l_gave_up <- (p.p_seq, p.p_retries) :: l.l_gave_up;
          t.notify ~time:now
            (Gave_up { src = l.l_src; dst = l.l_dst; seq = p.p_seq; retries = p.p_retries });
          release t l p
        end
        else begin
          (* [waited] is the timeout that just expired (captured before the
             backoff doubling): the observed retransmit latency. *)
          let waited = p.p_rto in
          p.p_retries <- p.p_retries + 1;
          p.p_rto <- p.p_rto *. 2.0;
          t.notify ~time:now
            (Retransmit
               {
                 src = l.l_src;
                 dst = l.l_dst;
                 seq = p.p_seq;
                 retries = p.p_retries;
                 bytes = p.p_bytes;
                 rto = waited;
               });
          transmit t l p ~at:now;
          arm_timer t l p ~at:now;
          release t l p
        end
      end)

let send t ~src ~dst ~at ~bytes handler =
  if src = dst then invalid_arg "Transport.send: loopback is the caller's fast path";
  if Hashtbl.mem t.dead dst || Hashtbl.mem t.dead src then
    (* No sequence number, no timer, no retransmission storm: the send is
       abandoned up front ([seq = -1] marks the never-transmitted case). *)
    t.notify ~time:at (Peer_dead { src; dst; seq = -1; bytes })
  else begin
    let l = link t ~src ~dst in
    let p =
      alloc_packet t ~seq:l.l_next_seq ~bytes ~handler ~rto:(initial_rto t l ~bytes)
    in
    l.l_next_seq <- l.l_next_seq + 1;
    Hashtbl.replace l.l_inflight p.p_seq p;
    transmit t l p ~at;
    arm_timer t l p ~at
  end

(* --- heartbeats ------------------------------------------------------ *)

let hb_bytes = 8

(* Heartbeats are deliberately *unreliable*: no sequence numbers, no
   retransmission, no acks — a missed ping is exactly the signal the
   suspector exists to interpret. Each copy is charged to the timing model
   ([Network.transfer_time] plus the chaos verdict's jitter) and judged on
   the same per-link streams as payload traffic, so a lossy or partitioned
   link starves the observer honestly. Nothing is notified per heartbeat:
   they would drown the trace. *)
let start_heartbeats t ~nprocs ~interval ~timeout ~active ~on_suspect ~on_refute =
  if interval <= 0. then invalid_arg "Transport.start_heartbeats: interval must be > 0";
  if timeout <= 0. then invalid_arg "Transport.start_heartbeats: timeout must be > 0";
  let start = Sim.Engine.now t.engine in
  (* observer -> peer matrices; [last.(o).(p)] = last time o heard p. *)
  let last = Array.make_matrix nprocs nprocs start in
  let suspected = Array.make_matrix nprocs nprocs false in
  (* Seeded per-node phase offsets desynchronize the emission ticks (and
     therefore the suspicion checks) across nodes. *)
  let phase_rng =
    Sim.Rng.create ~seed:((Chaos.params t.chaos).Chaos.fault_seed + 0x48b2)
  in
  let phases = Array.init nprocs (fun _ -> Sim.Rng.float phase_rng interval) in
  let beam node peer ~now =
    let v = Chaos.judge t.chaos ~src:node ~dst:peer in
    let transfer = Network.transfer_time t.net ~src:node ~dst:peer ~bytes:hb_bytes in
    if
      (not v.Chaos.drop)
      && (not (down_at t node ~time:now))
      && not (severed t ~src:node ~dst:peer ~time:now)
    then
      Sim.Engine.schedule t.engine ~at:(now +. transfer +. v.Chaos.delay) (fun () ->
          let arrival = Sim.Engine.now t.engine in
          if
            (not (Hashtbl.mem t.dead peer))
            && (not (down_at t peer ~time:arrival))
            && not (severed t ~src:node ~dst:peer ~time:arrival)
          then begin
            last.(peer).(node) <- arrival;
            if suspected.(peer).(node) then begin
              suspected.(peer).(node) <- false;
              on_refute ~by:peer ~peer:node ~time:arrival
            end
          end)
  in
  (* One tick per node per interval: emit a ping to every peer, then audit
     the node's own view for peers gone quiet past the timeout. A killed
     node's tick stops re-arming (and with it its suspicions); a paused
     node keeps ticking — it cannot hear anyone, so it suspects everyone,
     which is precisely the false-suspicion storm quorum must survive. *)
  let rec tick node () =
    let now = Sim.Engine.now t.engine in
    if active () && not (Hashtbl.mem t.dead node) then begin
      for peer = 0 to nprocs - 1 do
        if peer <> node then begin
          if not (Hashtbl.mem t.dead peer) then beam node peer ~now;
          if (not suspected.(node).(peer)) && now -. last.(node).(peer) > timeout
          then begin
            suspected.(node).(peer) <- true;
            on_suspect ~by:node ~peer ~time:now
          end
        end
      done;
      Sim.Engine.schedule t.engine ~at:(now +. interval) (tick node)
    end
  in
  for node = 0 to nprocs - 1 do
    Sim.Engine.schedule t.engine ~at:(start +. phases.(node)) (tick node)
  done

(* --- diagnostics ---------------------------------------------------- *)

let fold_links t f acc =
  Hashtbl.fold (fun _ l acc -> f acc l) t.links acc

(* Crash-stop [peer]: every packet in flight on a link touching it is
   abandoned now — removed from the in-flight table so the already-armed
   backoff timers find nothing to do and just release their packet to the
   pool (cancellation without retransmission), and reported as [Peer_dead]
   instead of silently burning the retry cap. Future sends to or from the
   peer are refused up front in [send]. *)
let kill_peer t ~peer ~time =
  Hashtbl.replace t.dead peer ();
  let links =
    fold_links t (fun acc l -> if l.l_src = peer || l.l_dst = peer then l :: acc else acc) []
    |> List.sort (fun a b -> compare (a.l_src, a.l_dst) (b.l_src, b.l_dst))
  in
  List.iter
    (fun l ->
      let pending =
        Hashtbl.fold (fun seq p acc -> (seq, p) :: acc) l.l_inflight [] |> List.sort compare
      in
      List.iter
        (fun (seq, p) ->
          Hashtbl.remove l.l_inflight seq;
          t.notify ~time (Peer_dead { src = l.l_src; dst = l.l_dst; seq; bytes = p.p_bytes }))
        pending)
    links

let inflight_count t = fold_links t (fun acc l -> acc + Hashtbl.length l.l_inflight) 0

let gave_up_count t = fold_links t (fun acc l -> acc + List.length l.l_gave_up) 0

let describe_pending t =
  let links =
    fold_links t (fun acc l -> l :: acc) []
    |> List.sort (fun a b -> compare (a.l_src, a.l_dst) (b.l_src, b.l_dst))
  in
  List.concat_map
    (fun l ->
      let inflight =
        Hashtbl.fold (fun seq p acc -> (seq, p) :: acc) l.l_inflight []
        |> List.sort compare
        |> List.map (fun (seq, p) ->
               Printf.sprintf "link %d->%d: seq %d unacked (%d bytes, %d retransmissions)"
                 l.l_src l.l_dst seq p.p_bytes p.p_retries)
      in
      let gave_up =
        List.rev_map
          (fun (seq, retries) ->
            Printf.sprintf "link %d->%d: seq %d ABANDONED after %d retransmissions" l.l_src
              l.l_dst seq retries)
          l.l_gave_up
      in
      inflight @ gave_up)
    links
