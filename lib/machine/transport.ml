(* Reliable FIFO transport over a chaotic network: per-link sequence
   numbers, receiver dedup + reorder buffer, cumulative acks, and sender
   retransmission with exponential backoff up to a retry cap.

   Everything observable is reported through [notify]; the transport keeps
   no statistics of its own and never raises — an abandoned packet is
   recorded and surfaced via [describe_pending] so a watchdog can diagnose
   the stall if anyone was actually waiting on it. *)

type notice =
  | Dropped of { src : int; dst : int; seq : int; bytes : int; ack : bool }
  | Retransmit of { src : int; dst : int; seq : int; retries : int; bytes : int; rto : float }
  | Dup_dropped of { src : int; dst : int; seq : int }
  | Ack_sent of { src : int; dst : int; upto : int }
  | Gave_up of { src : int; dst : int; seq : int; retries : int }
  | Peer_dead of { src : int; dst : int; seq : int; bytes : int }

let seq_bytes = 8

let ack_bytes = 16

type packet = {
  p_seq : int;
  p_bytes : int;
  p_handler : float -> unit;
  mutable p_retries : int;
  mutable p_rto : float;
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
  alive : int -> bool;  (* the caller's liveness record *)
  links : (int * int, link) Hashtbl.t;
}

let create ~engine ~net ~chaos ~alive ?(max_retries = 10) ~notify () =
  { engine; net; chaos; max_retries; notify; alive; links = Hashtbl.create 64 }

(* A node's links are down at [time] if it crash-stopped or sits inside a
   pause (gray-failure) window of the chaos schedule. *)
let down_at t node ~time =
  (not (t.alive node)) || Chaos.silenced (Chaos.params t.chaos) ~node ~time

(* A directed link is cut at [time] if an active partition puts its
   endpoints on opposite sides. Checked at both ends of every copy's
   flight, so a partition also guillotines copies already in the air. *)
let severed t ~src ~dst ~time = Chaos.severed t.chaos ~src ~dst ~time

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
  (2.0 *. (fwd +. back)) +. (2.0 *. Chaos.max_delay (Chaos.params t.chaos)) +. 100.

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
      if t.alive l.l_dst then handler slot)

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
    Sim.Engine.schedule t.engine
      ~at:(at +. transfer +. delay)
      (fun () ->
        let seq = p.p_seq and bytes = p.p_bytes and handler = p.p_handler in
        let now = Sim.Engine.now t.engine in
        if not (t.alive l.l_dst) then
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
  if v.Chaos.duplicate then copy v.Chaos.dup_delay

let rec arm_timer t l (p : packet) ~at =
  (* Seeded per-link jitter on the armed delay (the nominal [p_rto] keeps
     doubling cleanly): without it, every sender stranded by a partition
     fires its timer in lockstep when the link heals — a synchronized
     retransmit storm. *)
  let delay = p.p_rto *. Chaos.backoff_factor t.chaos ~src:l.l_src ~dst:l.l_dst in
  Sim.Engine.schedule t.engine ~at:(at +. delay) (fun () ->
      if Hashtbl.mem l.l_inflight p.p_seq then begin
        let now = Sim.Engine.now t.engine in
        if p.p_retries >= t.max_retries then begin
          Hashtbl.remove l.l_inflight p.p_seq;
          l.l_gave_up <- (p.p_seq, p.p_retries) :: l.l_gave_up;
          t.notify ~time:now
            (Gave_up { src = l.l_src; dst = l.l_dst; seq = p.p_seq; retries = p.p_retries })
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
          arm_timer t l p ~at:now
        end
      end)

let send t ~src ~dst ~at ~bytes handler =
  if src = dst then invalid_arg "Transport.send: loopback is the caller's fast path";
  if not (t.alive dst && t.alive src) then
    (* No sequence number, no timer, no retransmission storm: the send is
       abandoned up front ([seq = -1] marks the never-transmitted case). *)
    t.notify ~time:at (Peer_dead { src; dst; seq = -1; bytes })
  else begin
    let l = link t ~src ~dst in
    let p =
      {
        p_seq = l.l_next_seq;
        p_bytes = bytes;
        p_handler = handler;
        p_retries = 0;
        p_rto = initial_rto t l ~bytes;
      }
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
   failure detector exists to interpret. Each copy is charged to the
   timing model ([Network.transfer_time] plus the chaos verdict's jitter)
   and judged on the same per-link streams as payload traffic, so a lossy
   or partitioned link starves the observer honestly. No notice is sent
   per heartbeat: they would drown the trace. The transport keeps only
   when each node last heard each peer; the caller keeps any suspicion
   state. *)
let start_heartbeats t ~nprocs ~interval ~timeout ~active ~on_silent ~on_heard =
  if interval <= 0. then invalid_arg "Transport.start_heartbeats: interval must be > 0";
  if timeout <= 0. then invalid_arg "Transport.start_heartbeats: timeout must be > 0";
  let start = Sim.Engine.now t.engine in
  (* [last.(o).(p)] = last time observer o heard peer p. *)
  let last = Array.make_matrix nprocs nprocs start in
  (* Seeded per-node phase offsets desynchronize the emission ticks (and
     therefore the audits) across nodes. *)
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
            (not (down_at t peer ~time:arrival))
            && not (severed t ~src:node ~dst:peer ~time:arrival)
          then begin
            last.(peer).(node) <- arrival;
            on_heard ~by:peer ~peer:node ~time:arrival
          end)
  in
  (* One tick per node per interval: emit a ping to every peer, then audit
     the node's own view for peers gone quiet past the timeout. A killed
     node's tick stops re-arming (and with it its audits); a paused node
     keeps ticking — it cannot hear anyone, so it finds everyone silent,
     which is precisely the false-suspicion storm quorum must survive. *)
  let rec tick node () =
    let now = Sim.Engine.now t.engine in
    if active () && t.alive node then begin
      for peer = 0 to nprocs - 1 do
        if peer <> node then begin
          if t.alive peer then beam node peer ~now;
          if now -. last.(node).(peer) > timeout then on_silent ~by:node ~peer ~time:now
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

(* Crash-stop [peer], whom [alive] already reports dead: every packet in
   flight on a link touching it is abandoned now — removed from the
   in-flight table so the already-armed backoff timers find nothing to do
   (cancellation without retransmission), and reported as [Peer_dead]
   instead of silently burning the retry cap. Future sends to or from the
   peer are refused up front in [send]. *)
let kill_peer t ~peer ~time =
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
