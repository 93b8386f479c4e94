module Clock = Tcpfo_sim.Clock
module Time = Tcpfo_sim.Time
module Seq32 = Tcpfo_util.Seq32
module Interval_buf = Tcpfo_util.Interval_buf
module Ipaddr = Tcpfo_packet.Ipaddr
module Seg = Tcpfo_packet.Tcp_segment
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Ip_layer = Tcpfo_ip.Ip_layer
module Eth_iface = Tcpfo_ip.Eth_iface
module Host = Tcpfo_host.Host
module Tcb = Tcpfo_tcp.Tcb
module Stack = Tcpfo_tcp.Stack
module Obs = Tcpfo_obs.Obs
module Event = Tcpfo_obs.Event
module Registry = Tcpfo_obs.Registry

type mode = Active | Linger

(* What the bridge knows of one replica's half of a connection.  The
   primary's and the secondary's halves are the same record: the merge
   treats their acks, windows, SYNs and FINs alike (§3.2–§3.4).  Only
   their reply bytes are kept apart (see [conn]). *)
type side = {
  mutable init : Seq32.t option; (* the replica's ISN, its own space *)
  mutable mss : int; (* the MSS its SYN announced *)
  mutable fin : Seq32.t option; (* wire-space position of its FIN (§8) *)
  mutable ack : Seq32.t option; (* its highest cumulative ack (§3.2) *)
  mutable win : int; (* its latest advertised window *)
}

type replica = Primary | Secondary

type conn = {
  remote : Ipaddr.t * int;
  local_port : int;
  mutable mode : mode;
  mutable solo : bool;
      (* the connection outlived its secondary (§6): offset-only
         translation forever, never re-replicated *)
  mutable p : side;
  mutable s : side;
  mutable p_end : Seq32.t;
      (* wire-space end of the primary's output so far.  The client has
         acknowledged none of it past [next_seq], so those bytes are
         still in the primary's send buffer, and the merge reads them
         there: the bridge keeps no copy of them (§4) *)
  mutable s_q : Interval_buf.t;
      (* the secondary's unmatched reply bytes, wire space *)
  (* --- sequence synchronization (§3.3, §7) --- *)
  mutable delta : int option;
      (* seq_P,init - seq_S,init; [None] until the SYNs merge *)
  mutable syn_ack : bool; (* the replicas' SYNs acked a client SYN (§7.1) *)
  mutable next_seq : Seq32.t; (* next wire (secondary-space) seq to emit *)
  (* --- FIN tracking (§8) --- *)
  mutable fin_sent : bool;
  mutable client_fin : Seq32.t option; (* position of the client's FIN *)
  (* --- joint acknowledgment state (§3.2) --- *)
  mutable last_ack_sent : Seq32.t option;
  mutable last_win_sent : int;
  mutable client_ack : Seq32.t option; (* highest ack the client has sent *)
  (* --- hot state transfer (reintegration) --- *)
  mutable xfer_hold : bool;
      (* per-connection quiesce: the local TCP layer's output is parked
         in [xfer_held] between snapshot and cut-over, so nothing escapes
         in a sequence range the snapshot does not cover *)
  xfer_held : Seg.t Queue.t;
  xfer_tap : Ipv4_packet.t Queue.t;
      (* client datagrams seen during the hold, re-forwarded to the
         repaired replica at cut-over: the client never retransmits data
         the survivor already acknowledged, so the replica would
         otherwise miss it forever *)
  mutable wait_since : Time.t option;
      (* first unmatched byte arrived: feeds the merge-latency histogram *)
}

(* Keyed by (remote addr, remote port, local port).  [equal] is
   monomorphic, so a lookup makes no [compare_val] call.  [hash] must
   stay [Hashtbl.hash]: it fixes the order in which [secondary_failed]
   visits connections (see the interface). *)
module Conns = Hashtbl.Make (struct
  type t = Ipaddr.t * int * int

  let equal (a, rp, lp) (a', rp', lp') =
    Ipaddr.equal a a' && Int.equal rp rp' && Int.equal lp lp'

  let hash = Hashtbl.hash
end)

type output = Direct | Divert_to of Ipaddr.t

type t = {
  host : Host.t;
  registry : Failover_config.registry;
  service_addr : Ipaddr.t;
  mutable secondary_addr : Ipaddr.t;
  self_addr : Ipaddr.t; (* this host's own address *)
  mutable out : output;
  claim_service : bool; (* claim client datagrams for local delivery *)
  conns : conn Conns.t;
  mutable degraded : bool; (* secondary has failed: §6 mode *)
  obs : Obs.t; (* world-absolute [bridge.primary] scope *)
  c_emitted : Registry.counter;
  c_retrans_fwd : Registry.counter;
  c_empty_acks : Registry.counter;
  c_syn_merges : Registry.counter;
  c_merged_bytes : Registry.counter;
  h_merge_latency : Registry.histogram;
}

let config t = Failover_config.config t.registry
let now t = (Host.clock t.host).now ()

let key_of conn = (fst conn.remote, snd conn.remote, conn.local_port)

let mk_conn ~remote ~local_port =
  let fresh () =
    { init = None; mss = 536; fin = None; ack = None; win = 65535 }
  in
  {
    remote;
    local_port;
    mode = Active;
    solo = false;
    p = fresh ();
    s = fresh ();
    p_end = Seq32.zero;
    s_q = Interval_buf.create ~base:Seq32.zero;
    delta = None;
    syn_ack = false;
    next_seq = Seq32.zero;
    fin_sent = false;
    client_fin = None;
    last_ack_sent = None;
    last_win_sent = 0;
    client_ack = None;
    xfer_hold = false;
    xfer_held = Queue.create ();
    xfer_tap = Queue.create ();
    wait_since = None;
  }

(* The SYNs merged (or the entry was armed around a local TCB) and the
   connection is not yet torn down: the bridge emits for it. *)
let merging conn = conn.mode = Active && Option.is_some conn.delta

(* Joint acknowledgment: the smaller of the replicas' cumulative acks
   guarantees both have the client data (§3.2).  The ablation switches in
   {!Failover_config} take the primary's own values instead, and so does
   a [solo] connection, whose secondary is gone (§6). *)
let joint_ack t conn =
  let use_min = (not conn.solo) && (config t).use_min_ack in
  match (conn.p.ack, conn.s.ack) with
  | Some a, Some b -> Some (if use_min then Seq32.min a b else a)
  | Some a, None | None, Some a -> Some a
  | None, None -> None

let joint_win t conn =
  if (not conn.solo) && (config t).use_min_window then
    Int.min conn.p.win conn.s.win
  else conn.p.win

let joint_mss conn =
  if conn.solo then conn.p.mss else Int.min conn.p.mss conn.s.mss

let side_of conn = function Primary -> conn.p | Secondary -> conn.s

(* A replica's output past the emission frontier, in wire space. *)
let pending conn = function
  | Primary -> Int.max 0 (Seq32.diff conn.p_end conn.next_seq)
  | Secondary -> Interval_buf.contiguous_length conn.s_q

(* Bytes ready to go out: sent by both replicas, or by P alone once the
   connection is solo. *)
let joint_length conn =
  let lp = pending conn Primary in
  if conn.solo then lp else Int.min lp (pending conn Secondary)

let local_tcb t conn =
  Stack.find (Host.tcp t.host)
    ~local:(t.service_addr, conn.local_port)
    ~remote:conn.remote

(* [len] bytes of P's output from wire sequence [seq], read from its
   send buffer; [None] if P's connection no longer holds them. *)
let primary_output t conn ~seq ~len =
  match local_tcb t conn with
  | Some tcb ->
    Tcb.unacked_output tcb
      ~seq:(Seq32.add seq (Option.value conn.delta ~default:0))
      ~len
  | None -> None

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)

(* The bridge's one way out.  [Direct] sends from the service address to
   the client; [Divert_to] presents the stream upstream as an ordinary
   secondary would divert it: from this host, the original destination
   riding in the [Orig_dst] option (§3.1). *)
let packet t conn ~ident (seg : Seg.t) =
  match t.out with
  | Direct ->
    Ipv4_packet.make ~ident ~src:t.service_addr ~dst:(fst conn.remote)
      (Ipv4_packet.Tcp seg)
  | Divert_to upstream ->
    let seg =
      { seg with Seg.options = Seg.Orig_dst (fst conn.remote) :: seg.options }
    in
    Ipv4_packet.make ~ident ~src:t.self_addr ~dst:upstream (Ipv4_packet.Tcp seg)

let emit t conn seg =
  Registry.Counter.incr t.c_emitted;
  let pkt = packet t conn ~ident:(Ip_layer.fresh_ident (Host.ip t.host)) seg in
  let cost = (config t).bridge_cost in
  Tcpfo_sim.Cpu.run (Host.cpu t.host) ~cost (fun () ->
      Ip_layer.inject (Host.ip t.host) pkt)

let emit_data t conn ~seq ~payload ~fin ~psh =
  let ack = match joint_ack t conn with Some a -> a | None -> Seq32.zero in
  let window = joint_win t conn in
  conn.last_ack_sent <- Some ack;
  conn.last_win_sent <- window;
  emit t conn
    (Seg.make
       ~flags:{ Seg.no_flags with ack = true; fin; psh }
       ~ack
       ~window:(Int.min 0xFFFF window)
       ~payload ~src_port:conn.local_port
       ~dst_port:(snd conn.remote) ~seq ())

(* An empty segment at the stream frontier carrying the joint ack. *)
let emit_ack t conn =
  emit_data t conn ~seq:conn.next_seq ~payload:"" ~fin:false ~psh:false

(* §3.4: construct an empty segment when the joint acknowledgment — or,
   to avoid a zero-window deadlock the paper does not discuss, the joint
   window — advances without data to carry it. *)
let maybe_empty_ack t conn =
  if merging conn then
    match joint_ack t conn with
    | None -> ()
    | Some a ->
      let w = joint_win t conn in
      let advanced =
        match conn.last_ack_sent with
        | None -> true
        | Some prev -> Seq32.gt a prev || w > conn.last_win_sent
      in
      if advanced then begin
        Registry.Counter.incr t.c_empty_acks;
        emit_ack t conn
      end

(* A replica answered a client retransmission (or an out-of-window
   segment) with a duplicate ACK.  The joint acknowledgment did not
   advance, but the client is evidently missing our previous merged ACK —
   re-emit it, or the connection deadlocks once a merged ACK is lost and
   no data flows to carry a fresh one.  (An engineering completion of
   §3.4's empty-segment rule; bounded to one emission per replica
   duplicate ACK.)  A replica sends no ACK after a reply that already
   carried it (DESIGN.md 7.19), so a request its service answers from
   [on_data] does not land here; until that rule, each one re-emitted
   two merged duplicates, one per replica's delayed ACK. *)
let reemit_merged_ack t conn =
  if merging conn then
    match joint_ack t conn with
    | Some _ ->
      Registry.Counter.incr t.c_empty_acks;
      emit_ack t conn
    | None -> ()

(* A replica is at its stream end: no byte left before its FIN, which
   sits at the emission frontier. *)
let at_fin conn replica =
  (match (side_of conn replica).fin with
  | Some f -> Seq32.equal f conn.next_seq
  | None -> false)
  && pending conn replica = 0

let fin_ready conn =
  (not conn.fin_sent)
  && at_fin conn Primary
  && (conn.solo || at_fin conn Secondary)

(* §8 teardown: both directions closed and all final acknowledgments
   delivered — the client acked our FIN, and an ACK of the client's FIN
   went out.  Whichever FIN came first, the check runs after every
   [pump] and every client segment.  The connection lingers to answer
   stray FIN retransmissions, then disappears. *)
let maybe_finish t conn =
  let covers pos = function Some a -> Seq32.ge a pos | None -> false in
  if
    conn.mode = Active && conn.fin_sent
    && covers conn.next_seq conn.client_ack (* next_seq is fin+1 once sent *)
    &&
    match conn.client_fin with
    | Some f -> covers (Seq32.succ f) conn.last_ack_sent
    | None -> false
  then begin
    conn.mode <- Linger;
    ignore
      ((Host.clock t.host).schedule (Time.sec 10.0) (fun () ->
           Conns.remove t.conns (key_of conn)))
  end

(* §3.4, Fig. 2: pump the longest byte prefix both replicas have sent,
   splitting at the negotiated MSS; piggyback the joint FIN when both
   replicas' FINs line up at the stream end (§8).  The bytes are P's,
   read from its send buffer; S's matching bytes are dropped.

   A solo connection runs the same loop on P's side alone: the §6 flush,
   and every later segment P sends.  Its ack, window, MSS and FIN are the
   primary's own; every segment is pushed, and no byte counts as merged
   or waits for a twin. *)
let pump t conn =
  if merging conn then begin
    let solo = conn.solo in
    let progressed = ref false in
    let continue = ref true in
    while !continue do
      let common = joint_length conn in
      let seq = conn.next_seq in
      let len = Int.min common (joint_mss conn) in
      let payload =
        if common > 0 then primary_output t conn ~seq ~len else None
      in
      match payload with
      | Some payload ->
        if not solo then begin
          (* the secondary's copy carries the same bytes; drop without
             materializing a second string (§3.4 merges identical streams) *)
          Interval_buf.drop conn.s_q ~len;
          Registry.Counter.add t.c_merged_bytes len
        end;
        conn.next_seq <- Seq32.add conn.next_seq len;
        let fin = fin_ready conn in
        if fin then begin
          conn.fin_sent <- true;
          conn.next_seq <- Seq32.succ conn.next_seq
        end;
        emit_data t conn ~seq ~payload ~fin
          ~psh:(solo || joint_length conn = 0);
        progressed := true
      | None -> continue := false
    done;
    (* FIN with no payload left *)
    if fin_ready conn then begin
      conn.fin_sent <- true;
      let seq = conn.next_seq in
      conn.next_seq <- Seq32.succ conn.next_seq;
      emit_data t conn ~seq ~payload:"" ~fin:true ~psh:false;
      progressed := true
    end;
    if not !progressed then maybe_empty_ack t conn
    else if not solo then begin
      (* merge latency: how long the earlier replica's bytes sat waiting
         for their twin before the merged segment could go out *)
      (match conn.wait_since with
      | Some t0 ->
        Registry.Histogram.observe_us t.h_merge_latency (now t - t0)
      | None -> ());
      conn.wait_since <-
        (if
           pending conn Primary > 0
           || Interval_buf.total_buffered conn.s_q > 0
         then Some (now t)
         else None)
    end;
    maybe_finish t conn
  end

(* ------------------------------------------------------------------ *)
(* SYN merging (§7.1 client-initiated, §7.2 server-initiated)          *)

(* The merged SYN: the secondary's ISN, the smaller MSS, and the joint ack
   when the replicas answered a client SYN. *)
let merged_syn t conn ~seq =
  let ack =
    if conn.syn_ack then
      match joint_ack t conn with Some a -> a | None -> Seq32.zero
    else Seq32.zero
  in
  Seg.make
    ~flags:{ Seg.no_flags with syn = true; ack = conn.syn_ack }
    ~ack
    ~window:(Int.min 0xFFFF (joint_win t conn))
    ~options:[ Seg.Mss (joint_mss conn) ]
    ~src_port:conn.local_port ~dst_port:(snd conn.remote) ~seq ()

let try_merge_syn t conn =
  match (conn.p.init, conn.s.init) with
  | Some sp, Some ss when conn.delta = None ->
    conn.delta <- Some (Seq32.diff sp ss);
    conn.next_seq <- Seq32.succ ss;
    conn.p_end <- conn.next_seq;
    conn.s_q <- Interval_buf.create ~base:conn.next_seq;
    Registry.Counter.incr t.c_syn_merges;
    if Obs.tracing t.obs then
      Obs.emit t.obs ~at:(now t)
        (Event.Merge
           { host = Host.name t.host; port = conn.local_port; bytes = 0 });
    let syn = merged_syn t conn ~seq:ss in
    conn.last_ack_sent <- (if conn.syn_ack then Some syn.ack else None);
    conn.last_win_sent <- syn.window;
    emit t conn syn;
    pump t conn
  | _ -> ()

(* The wire ISN is P's less Δseq: the secondary's, or P's own on an
   entry armed solo. *)
let reemit_merged_syn t conn =
  match (conn.p.init, conn.delta) with
  | Some sp, Some d ->
    Registry.Counter.incr t.c_retrans_fwd;
    emit t conn (merged_syn t conn ~seq:(Seq32.add sp (-d)))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Per-source segment processing                                       *)

(* Common data/FIN path once sequence numbers are in wire space.  P's
   payload only moves its frontier: the bytes stay in its send buffer. *)
let ingest_wire t conn replica ~wire_seq (seg : Seg.t) =
  let plen = String.length seg.payload in
  let wire_end = Seq32.add wire_seq (plen + if seg.flags.fin then 1 else 0) in
  if
    Option.is_some conn.delta
    && Seq32.le wire_end conn.next_seq
    && (plen > 0 || seg.flags.fin)
  then begin
    (* Entirely already emitted: a retransmission.  Forward immediately —
       the bridge holds only a single copy of anything (§4). *)
    Registry.Counter.incr t.c_retrans_fwd;
    emit_data t conn ~seq:wire_seq ~payload:seg.payload ~fin:seg.flags.fin
      ~psh:(plen > 0)
  end
  else begin
    if plen > 0 then begin
      (match replica with
      | Primary -> conn.p_end <- Seq32.max conn.p_end (Seq32.add wire_seq plen)
      | Secondary -> Interval_buf.insert conn.s_q ~seq:wire_seq seg.payload);
      if conn.wait_since = None then conn.wait_since <- Some (now t)
    end;
    if seg.flags.fin then
      (side_of conn replica).fin <- Some (Seq32.add wire_seq plen);
    pump t conn
  end

let forward_rst t conn ~wire_seq (seg : Seg.t) =
  emit t conn
    (Seg.make
       ~flags:{ Seg.no_flags with rst = true; ack = seg.flags.ack }
       ~ack:seg.ack ~window:0 ~src_port:conn.local_port
       ~dst_port:(snd conn.remote) ~seq:wire_seq ());
  Conns.remove t.conns (key_of conn)

(* One replica's segment, whichever replica sent it: record its ack and
   window, its SYN's ISN and MSS, then merge, re-answer or ingest.
   [shift] maps its sequence numbers into wire space: Δseq for the
   primary, [None] until the SYNs merge (data before that is impossible
   for a correct TCP and is dropped), [Some 0] for the secondary. *)
let from_replica t conn replica ~shift (seg : Seg.t) =
  let side = side_of conn replica in
  let prev_ack = side.ack in
  if seg.flags.ack then begin
    side.ack <-
      Some (match prev_ack with Some a -> Seq32.max a seg.ack | None -> seg.ack);
    side.win <- seg.window
  end;
  if seg.flags.rst then
    forward_rst t conn
      ~wire_seq:(Seq32.add seg.seq (-Option.value shift ~default:0))
      seg
  else if seg.flags.syn then begin
    conn.syn_ack <- seg.flags.ack;
    match side.init with
    | None ->
      side.init <- Some seg.seq;
      side.mss <- Option.value (Seg.mss_option seg) ~default:536;
      try_merge_syn t conn
    | Some _ -> reemit_merged_syn t conn
  end
  else
    match shift with
    | None ->
      if Obs.tracing t.obs then
        Obs.emit t.obs ~at:(now t)
          (Event.Segment_drop
             { host = Host.name t.host; reason = "pre-merge"; seg })
    | Some d ->
      let pure_dup =
        String.length seg.payload = 0
        && (not seg.flags.fin)
        &&
        match (prev_ack, side.ack) with
        | Some a, Some b -> Seq32.equal a b
        | _ -> false
      in
      if pure_dup then reemit_merged_ack t conn
      else ingest_wire t conn replica ~wire_seq:(Seq32.add seg.seq (-d)) seg

let from_primary t conn seg =
  if conn.mode = Active then from_replica t conn Primary ~shift:conn.delta seg

(* Answer a stray FIN from the secondary after (or near) teardown: build
   the ACK the secondary's TCP layer is waiting for and slip it to the
   secondary as if it came from the client.  On the wire it is addressed
   to the service address but framed to the secondary's MAC — the
   secondary's bridge claims datagrams for the service address, so its TCP
   layer receives it (see Secondary_bridge). *)
let synthesize_ack_to_secondary t conn (seg : Seg.t) =
  let fin_end =
    Seq32.add seg.seq (String.length seg.payload + 1 (* the FIN itself *))
  in
  let ack_seg =
    Seg.make
      ~flags:{ Seg.no_flags with ack = true }
      ~ack:fin_end ~window:conn.last_win_sent
      ~src_port:(snd conn.remote) ~dst_port:conn.local_port
      ~seq:(if seg.flags.ack then seg.ack else conn.next_seq)
      ()
  in
  let pkt =
    Ipv4_packet.make
      ~ident:(Ip_layer.fresh_ident (Host.ip t.host))
      ~src:(fst conn.remote) ~dst:t.service_addr (Ipv4_packet.Tcp ack_seg)
  in
  Eth_iface.send_ip (Host.eth t.host) ~next_hop:t.secondary_addr pkt

let from_secondary t conn (seg : Seg.t) =
  match conn.mode with
  | Active -> from_replica t conn Secondary ~shift:(Some 0) seg
  | Linger ->
    (* §8: a FIN retransmitted by S after teardown is answered with a
       plain ACK (see synthesize_ack_to_secondary). *)
    if seg.flags.fin then synthesize_ack_to_secondary t conn seg

let from_client t conn (pkt : Ipv4_packet.t) (seg : Seg.t) =
  if conn.mode = Linger then begin
    (* §8: retransmitted client FIN after teardown — answer directly.  By
       linger time both replicas have acknowledged everything, so the
       stored joint ack (client_fin + 1) is exactly the ACK the client is
       waiting for. *)
    if seg.flags.fin then emit_ack t conn;
    Ip_layer.Rx_drop
  end
  else begin
    if conn.xfer_hold then Queue.push pkt conn.xfer_tap;
    if seg.flags.ack then
      conn.client_ack <-
        Some
          (match conn.client_ack with
          | Some prev -> Seq32.max prev seg.ack
          | None -> seg.ack);
    if seg.flags.fin then
      conn.client_fin <-
        Some
          (Seq32.add seg.seq
             (String.length seg.payload + if seg.flags.syn then 1 else 0));
    maybe_finish t conn;
    if seg.flags.rst then
      (* the client aborted: both TCP layers will see the RST and die;
         drop the bridge state too *)
      ignore
        ((Host.clock t.host).schedule 0 (fun () ->
             Conns.remove t.conns (key_of conn)));
    (* Inverse sequence translation (§3.3): the client acknowledges wire
       (secondary-space) sequence numbers; the primary's TCP layer counts
       in its own space. *)
    let accept pkt =
      if t.claim_service then Ip_layer.Rx_deliver pkt else Ip_layer.Rx_pass pkt
    in
    match conn.delta with
    | Some d when seg.flags.ack ->
      let seg' = { seg with ack = Seq32.add seg.ack d } in
      accept { pkt with payload = Ipv4_packet.Tcp seg' }
    | _ -> accept pkt
  end

(* ------------------------------------------------------------------ *)
(* §6: failure of the secondary server                                 *)

(* Point [conn] at a local TCB's sequence origin: from [snd_max] on,
   merge P's output (Δseq [delta]) with the peer's or, [solo], send it
   alone.  [frontier] is the TCB's, [snd_max] and [fin_sent] in wire
   numbering; [ack] is P's latest ack, taken as already sent. *)
let arm conn ~solo ~delta ~(frontier : Tcb.frontier) ~snd_max ~fin_sent ~ack =
  let wire s = Seq32.add s (-delta) in
  let side ~init ~ack =
    {
      init = Some init;
      mss = frontier.fr_mss;
      fin =
        (if fin_sent then
           (* snd_max covers the FIN, which sits one below the frontier *)
           Some (Seq32.add snd_max (-1))
         else None);
      ack;
      win = frontier.fr_window;
    }
  in
  conn.p <- side ~init:frontier.fr_iss ~ack;
  conn.s <- side ~init:(wire frontier.fr_iss) ~ack:None;
  conn.p_end <- snd_max;
  conn.s_q <- Interval_buf.create ~base:snd_max;
  conn.solo <- solo;
  conn.mode <- Active;
  conn.delta <- Some delta;
  conn.syn_ack <- false;
  conn.next_seq <- snd_max;
  conn.fin_sent <- fin_sent;
  conn.client_fin <- frontier.fr_rcv_fin;
  conn.client_ack <- Some (wire frontier.fr_snd_una);
  conn.last_ack_sent <- ack;
  conn.last_win_sent <- frontier.fr_window;
  conn.wait_since <- None

(* Pin a connection solo (§6): from now on P's output reaches the client
   through [pump] alone.  One that never merged has emitted nothing, so
   it takes its origin from the local TCB with Δ = 0 — it has run in this
   host's numbering all along.  [false] if it never merged and no TCB is
   left: the caller drops the entry. *)
let pin_solo t conn =
  conn.solo <- true;
  conn.wait_since <- None;
  Option.is_some conn.delta
  ||
  match local_tcb t conn with
  | Some tcb ->
    arm conn ~solo:true ~delta:0 ~frontier:(Tcb.frontier tcb)
      ~snd_max:(Tcb.snd_max tcb) ~fin_sent:(Tcb.fin_sent tcb) ~ack:conn.p.ack;
    true
  | None -> false

let secondary_failed t =
  if not t.degraded then begin
    t.degraded <- true;
    if Obs.tracing t.obs then
      Obs.emit t.obs ~at:(now t)
        (Event.Failover { host = Host.name t.host; phase = Degraded });
    (* §6 step 1: every connection goes solo, and what P alone has queued
       goes out now, with its own ack and window — the merge loop run
       solo *)
    Conns.filter_map_inplace
      (fun _ conn -> if pin_solo t conn then Some conn else None)
      t.conns;
    Conns.iter (fun _ conn -> pump t conn) t.conns
  end

(* Reintegration (beyond the paper's scope, §1): accept a fresh secondary.
   Connections that outlived the old secondary remain solo — without
   application-state transfer they cannot be re-replicated — but every
   connection established from now on is fully protected again. *)
let reinstate t ~secondary_addr =
  t.secondary_addr <- secondary_addr;
  t.degraded <- false;
  if Obs.tracing t.obs then
    Obs.emit t.obs ~at:(now t)
      (Event.Failover { host = Host.name t.host; phase = Reintegrated })

(* ------------------------------------------------------------------ *)
(* Hook plumbing                                                       *)

let is_failover_seg t ~local_port ~remote_port =
  Failover_config.is_failover_conn t.registry ~local_port ~remote_port

let find_conn t ~remote ~local_port =
  Conns.find_opt t.conns (fst remote, snd remote, local_port)

let find_or_create t ~remote ~local_port ~create =
  match find_conn t ~remote ~local_port with
  | Some c -> Some c
  | None ->
    if create then begin
      let c = mk_conn ~remote ~local_port in
      Conns.replace t.conns (key_of c) c;
      Some c
    end
    else None

(* ------------------------------------------------------------------ *)
(* Hot state transfer: quiesce / cut-over / abort                      *)

(* Quiesce one connection: from this instant until {!complete_transfer}
   or {!abort_transfer}, every segment the local TCP layer emits for it
   is parked in [xfer_held] (tx_hook checks the flag before any other
   dispatch) and every client datagram is tapped.  The snapshot the
   orchestrator takes in the same simulation instant is therefore exact:
   no byte escapes in a range the snapshot does not cover.  For a
   promoted survivor the bridge is freshly installed and has no conn for
   pre-failure connections yet — create it here, otherwise held output
   would bypass the bridge entirely during the hold. *)
let begin_transfer t ~remote ~local_port =
  match find_or_create t ~remote ~local_port ~create:true with
  | Some conn -> conn.xfer_hold <- true
  | None -> assert false

(* Held output goes out through the ordinary path. *)
let release_held t conn =
  let held = Queue.create () in
  Queue.transfer conn.xfer_held held;
  Queue.iter (fun seg -> from_primary t conn seg) held

(* Re-arm the bridge connection around the restored pair and cut over.
   The replica was installed from a snapshot in wire numbering, so the
   new Δseq is exactly the survivor's [delta] (0 for a promoted
   survivor).  Held survivor output is released through the ordinary
   merge path; tapped client datagrams are re-forwarded to the repaired
   replica, which never saw them (the client will not retransmit bytes
   the survivor already acknowledged).  Duplicates are harmless — TCP
   discards them. *)
let complete_transfer t ~remote ~local_port ~(frontier : Tcb.frontier)
    ~(snapshot : Tcb.snapshot) ~delta =
  match find_conn t ~remote ~local_port with
  | None -> ()
  | Some conn ->
    (* Merging resumes at the frontier the replica was installed with,
       not at the live TCB's: whatever the survivor sent during the hold
       is still parked, and must merge against the copy the replica
       sends once it resumes.  Started at the live frontier, those bytes
       would leave as unmerged "retransmissions" that the replica never
       sent, and it would answer every later client ACK as one for data
       it never transmitted. *)
    arm conn ~solo:false ~delta ~frontier ~snd_max:snapshot.Tcb.sn_snd_max
      ~fin_sent:snapshot.Tcb.sn_fin_sent ~ack:(Some frontier.fr_rcv_nxt);
    conn.xfer_hold <- false;
    release_held t conn;
    let tap = Queue.create () in
    Queue.transfer conn.xfer_tap tap;
    Queue.iter
      (fun pkt ->
        Eth_iface.send_ip (Host.eth t.host) ~next_hop:t.secondary_addr pkt)
      tap;
    (* a conn transferred in a terminal state (e.g. TIME_WAIT) may already
       satisfy the teardown condition: move it to linger straight away *)
    maybe_finish t conn

(* Transfer failed (reject or timeout): the connection continues solo.
   Its held output goes out through the solo merge loop, and the tap is
   dropped. *)
let abort_transfer t ~remote ~local_port =
  match find_conn t ~remote ~local_port with
  | Some conn when conn.xfer_hold ->
    conn.xfer_hold <- false;
    Queue.clear conn.xfer_tap;
    if pin_solo t conn then release_held t conn
    else Conns.remove t.conns (key_of conn)
  | Some _ | None -> ()

(* Mark a connection that is NOT being transferred as permanently solo,
   so a surviving half-open handshake cannot SYN-merge with the fresh
   replica's different ISN after reinstatement. *)
let isolate_conn t ~remote ~local_port =
  match find_or_create t ~remote ~local_port ~create:true with
  | Some conn ->
    if not (pin_solo t conn) then Conns.remove t.conns (key_of conn)
  | None -> assert false

(* Bridge-side Δseq for a live connection, if one is recorded. *)
let conn_delta t ~remote ~local_port =
  match find_conn t ~remote ~local_port with
  | Some { delta = Some d; _ } -> Some d
  | _ -> None

let tx_hook t (pkt : Ipv4_packet.t) =
  match pkt.payload with
  | Tcp seg
    when Ipaddr.equal pkt.src t.service_addr
         && is_failover_seg t ~local_port:seg.src_port
              ~remote_port:seg.dst_port -> (
    (* after §6, connections opened since are ordinary TCP *)
    match
      find_or_create t
        ~remote:(pkt.dst, seg.dst_port)
        ~local_port:seg.src_port
        ~create:(seg.flags.syn && not t.degraded)
    with
    | Some conn when conn.xfer_hold ->
      Queue.push seg conn.xfer_held;
      Ip_layer.Tx_drop
    | Some conn ->
      from_primary t conn seg;
      Ip_layer.Tx_drop
    | None -> Ip_layer.Tx_pass pkt)
  | Tcp _ | Raw _ -> Ip_layer.Tx_pass pkt

let rx_hook t (pkt : Ipv4_packet.t) ~link_addressed =
  ignore link_addressed;
  match pkt.payload with
  | Tcp seg
    when Ipaddr.equal pkt.dst t.service_addr
         || Ipaddr.equal pkt.dst t.self_addr -> (
    match Seg.orig_dst_option seg with
    | Some orig_dst
      when is_failover_seg t ~local_port:seg.src_port
             ~remote_port:seg.dst_port ->
      (* Diverted segment from the secondary (§3.1): consumed by the
         bridge, never delivered to the primary's TCP layer. *)
      if t.degraded then Ip_layer.Rx_drop
      else begin
        (match
           find_or_create t
             ~remote:(orig_dst, seg.dst_port)
             ~local_port:seg.src_port ~create:seg.flags.syn
         with
        | Some conn when conn.solo -> () (* outlived its secondary *)
        | Some conn -> from_secondary t conn seg
        | None -> ());
        Ip_layer.Rx_drop
      end
    | Some _ | None -> (
      (* Segment from the client (or unreplicated peer T). *)
      if
        Ipaddr.equal pkt.dst t.service_addr
        && is_failover_seg t ~local_port:seg.dst_port
             ~remote_port:seg.src_port
      then
        match find_conn t ~remote:(pkt.src, seg.src_port)
                ~local_port:seg.dst_port with
        | Some conn -> from_client t conn pkt seg
        | None ->
          if t.claim_service then Ip_layer.Rx_deliver pkt
          else Ip_layer.Rx_pass pkt
      else Ip_layer.Rx_pass pkt))
  | Tcp _ | Raw _ -> Ip_layer.Rx_pass pkt

let install host ~registry ~service_addr ~secondary_addr ?(output = Direct)
    ?(claim_service = false) () =
  let obs = Obs.scope (Obs.root (Host.obs host)) "bridge.primary" in
  let t =
    {
      host;
      registry;
      service_addr;
      secondary_addr;
      self_addr = Host.addr host;
      out = output;
      claim_service;
      conns = Conns.create 16;
      degraded = false;
      obs;
      c_emitted = Obs.counter obs "emitted";
      c_retrans_fwd = Obs.counter obs "retrans_forwarded";
      c_empty_acks = Obs.counter obs "empty_acks";
      c_syn_merges = Obs.counter obs "syn_merges";
      c_merged_bytes = Obs.counter obs "merged_bytes";
      h_merge_latency = Obs.histogram obs "merge_latency_us";
    }
  in
  if claim_service then begin
    (* a middle node sees client datagrams only by snooping, and its TCP
       layer must own connections addressed to the service address *)
    Eth_iface.set_promiscuous (Host.eth host) (Some service_addr);
    Stack.set_extra_local (Host.tcp host) (fun ip ->
        Ipaddr.equal ip service_addr)
  end;
  Ip_layer.set_tx_hook (Host.ip host) (Some (fun pkt -> tx_hook t pkt));
  Ip_layer.set_rx_hook (Host.ip host)
    (Some (fun pkt ~link_addressed -> rx_hook t pkt ~link_addressed));
  t

let connection_count t = Conns.length t.conns

let stale_count t =
  Conns.fold
    (fun _ conn n ->
      if conn.mode = Active && Option.is_none (local_tcb t conn) then n + 1
      else n)
    t.conns 0

module For_testing = struct
  let held_bytes t =
    Conns.fold
      (fun _ conn acc -> acc + Interval_buf.total_buffered conn.s_q)
      t.conns 0
end

(* A middle chain level whose upstream died diverts to the next live
   level above it, as a tail does (Secondary_bridge.retarget). *)
let retarget t addr =
  match t.out with
  | Divert_to up when not (Ipaddr.equal up addr) ->
    t.out <- Divert_to addr;
    true
  | Divert_to _ | Direct -> false

let degraded t = t.degraded
(* §5 for a middle node.  Its output switches to the client in one step:
   merged segments already carry the service address and the wire
   sequence space, so there is nothing to hold while the alias moves. *)
let promote t ~on_complete =
  t.out <- Direct;
  if Obs.tracing t.obs then
    Obs.emit t.obs ~at:(now t)
      (Event.Failover { host = Host.name t.host; phase = Takeover_started });
  Eth_iface.set_promiscuous (Host.eth t.host) None;
  ignore
    ((Host.clock t.host).schedule (config t).takeover_processing (fun () ->
         (* IP takeover: alias + gratuitous ARP *)
         Eth_iface.add_address (Host.eth t.host) t.service_addr;
         if Obs.tracing t.obs then
           Obs.emit t.obs ~at:(now t)
             (Event.Failover
                { host = Host.name t.host; phase = Takeover_complete });
         on_complete ()))
