module Clock = Tcpfo_sim.Clock
module Time = Tcpfo_sim.Time
module Seq32 = Tcpfo_util.Seq32
module Bytebuf = Tcpfo_util.Bytebuf
module Interval_buf = Tcpfo_util.Interval_buf
module Ipaddr = Tcpfo_packet.Ipaddr
module Seg = Tcpfo_packet.Tcp_segment
module Obs = Tcpfo_obs.Obs
module Registry = Tcpfo_obs.Registry

type state =
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

let state_to_string = function
  | Syn_sent -> "SYN_SENT"
  | Syn_received -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Closing -> "CLOSING"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"
  | Closed -> "CLOSED"

(* A connection in TIME_WAIT hands its demux-table slot to this record
   and drops its full TCB (FreeBSD's [tcptw], DESIGN.md 7.17).  It
   keeps what RFC 793 TIME_WAIT answers with and what a snapshot needs;
   everything else follows from the state: the peer's FIN is the last
   byte received, everything we sent (our FIN included) is acknowledged,
   so the send ring is empty at [tw_snd_nxt] and reassembly is empty.
   It never points at the TCB, so an application that drops its handle
   frees the TCB at once. *)
type rtt = {
  rtt_srtt : float; (* nan before the first sample *)
  rtt_var : float;
}

type tw = {
  tw_iss : Seq32.t;
  tw_irs : Seq32.t;
  tw_snd_nxt : Seq32.t; (* = snd_una = snd_max, one past our FIN *)
  tw_rcv_nxt : Seq32.t; (* one past the peer's FIN *)
  mutable tw_wnd : int; (* the window we advertise *)
  mutable tw_snd_wnd : int;
  mutable tw_snd_wl1 : Seq32.t;
  mutable tw_snd_wl2 : Seq32.t;
  tw_peer_mss : int;
  tw_mss : int; (* our configured MSS *)
  tw_rtt : rtt;
  tw_rto_base : int;
  tw_rto_shift : int;
  tw_cwnd : int;
  tw_ssthresh : int;
  mutable tw_retained : string list option; (* as [retained] *)
  mutable tw_replay_base : int;
  mutable tw_on_reset : unit -> unit;
  mutable tw_closed : bool; (* left the table: the handle reads CLOSED *)
}

type actions = { emit : Seg.t -> unit; on_delete : tw option -> unit }

(* The per-connection instruments, resolved by name once per stack (see
   [instruments]) rather than once per connection. *)
type instruments = {
  rto_ins : Rto.instruments;
  retransmits : Registry.counter; (* stack-wide [tcp.retransmits] *)
  retention_bytes : Registry.counter;
      (* world-absolute [statex.retention_bytes]: cumulative bytes ever
         retained for transfer, all connections *)
  retention_overflows : Registry.counter;
      (* world-absolute [statex.retention_overflows]: connections that
         outgrew the budget and lost transferability *)
  checkpoints : Registry.counter;
      (* world-absolute [statex.checkpoints]: application checkpoints
         taken *)
  retention_truncated : Registry.counter;
      (* world-absolute [statex.retention_truncated_bytes]: retained
         input dropped at checkpoint boundaries *)
}

let instruments obs =
  let statex = Obs.scope (Obs.root obs) "statex" in
  {
    rto_ins = Rto.instruments obs;
    retransmits = Obs.counter obs "retransmits";
    retention_bytes = Obs.counter statex "retention_bytes";
    retention_overflows = Obs.counter statex "retention_overflows";
    checkpoints = Obs.counter statex "checkpoints";
    retention_truncated = Obs.counter statex "retention_truncated_bytes";
  }

(* Fixed parameters of the paper's FreeBSD 4.4-era stack: a 64 KB send
   buffer (the knee in Figure 3), the RTO bounds, 100 ms delayed ACKs and
   the retry limits.  Delayed ACKs, Reno congestion control and fast
   retransmit are always on. *)
let send_buf_size = 65536
let rto_init = Time.sec 1.0
let rto_min = Time.ms 200
let rto_max = Time.sec 64.0
let delack_delay = Time.ms 100
let max_syn_retries = 5
let max_data_retries = 10

type t = {
  clock : Clock.t;
  config : Tcp_config.t;
  local : Ipaddr.t * int;
  remote : Ipaddr.t * int;
  actions : actions;
  mutable state : state;
  (* --- send side --- *)
  iss : Seq32.t;
  mutable sndbuf : Bytebuf.t; (* buffer offset o <-> sequence iss+1+o *)
  mutable snd_una : Seq32.t;
  mutable snd_nxt : Seq32.t;
  mutable snd_max : Seq32.t; (* highest sequence ever transmitted *)
  mutable snd_wnd : int;
  mutable snd_wl1 : Seq32.t;
  mutable snd_wl2 : Seq32.t;
  mutable peer_mss : int;
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  mutable send_full : bool; (* a send was refused; fire on_drain later *)
  (* --- receive side --- *)
  mutable irs : Seq32.t;
  mutable rcv_nxt : Seq32.t;
  mutable reasm : Interval_buf.t;
  mutable rcv_fin : Seq32.t option; (* position of the peer's FIN *)
  mutable eof_signalled : bool;
  mutable recv_paused : bool;
  recv_pending : Buffer.t; (* in-order bytes awaiting a paused reader *)
  (* --- timers --- *)
  rto : Rto.t;
  mutable rtx_timer : Tcpfo_sim.Engine.event_id option;
  mutable delack_timer : Tcpfo_sim.Engine.event_id option;
  mutable tw : tw option;
      (* the record that holds this connection's demux slot since it
         entered TIME_WAIT *)
  mutable persist_timer : Tcpfo_sim.Engine.event_id option;
  mutable persist_shift : int;
  mutable retry_count : int;
  mutable rtt_probe : (Seq32.t * Time.t) option;
  (* --- congestion --- *)
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable dupacks : int;
  (* --- state transfer --- *)
  mutable retained : string list option;
      (* every in-order chunk ever delivered to the application (reversed),
         kept so a restored replica can replay the input and regenerate
         the output stream (hot state transfer).  Chunk boundaries are
         preserved: a service may frame its replies per delivery, so
         replaying a coalesced blob would regenerate different output *)
  mutable resync_skip : int;
      (* app-stream bytes of regenerated output to swallow after a
         restore: everything below the snapshotted send-buffer end was
         either acked or shipped inside the snapshot *)
  mutable retained_bytes : int;
      (* bytes currently held in [retained]; bounded by
         [config.retention_budget] *)
  mutable replaying : bool;
      (* inside resume_restored's history replay: callbacks fired now
         replay input the original already acted on, so applications
         coupling connections (relays) must not re-forward it *)
  mutable retention_overflowed : bool;
      (* the budget was exceeded: history dropped, connection not
         transferable until an application checkpoint declares the lost
         prefix unnecessary *)
  mutable checkpoint_base : int;
      (* input-stream offset (bytes delivered to the application) where
         the retained history begins: 0 until the first checkpoint
         truncates the history.  Ships as [sn_replay_base] so a restored
         replica knows its replay starts mid-stream. *)
  (* --- callbacks --- *)
  mutable on_established : unit -> unit;
  mutable on_data : string -> unit;
  mutable on_eof : unit -> unit;
  mutable on_drain : unit -> unit;
  mutable on_close : unit -> unit;
  mutable on_reset : unit -> unit;
  (* --- stats --- *)
  mutable n_bytes_acked : int;
  mutable n_bytes_received : int;
  mutable n_retransmits : int;
  mutable n_segments_out : int;
  ins : instruments;
}

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)

let set_on_established t f = t.on_established <- f
let set_on_data t f = t.on_data <- f
let set_on_eof t f = t.on_eof <- f
let set_on_drain t f = t.on_drain <- f
let set_on_close t f = t.on_close <- f

let set_on_reset t f =
  t.on_reset <- f;
  match t.tw with Some tw -> tw.tw_on_reset <- f | None -> ()

(* once in TIME_WAIT, the record says when the connection is gone *)
let state t =
  match t.tw with
  | Some { tw_closed = true; _ } -> Closed
  | Some _ | None -> t.state
let local_endpoint t = t.local
let remote_endpoint t = t.remote
let effective_mss t = Int.min t.config.mss t.peer_mss
let iss t = t.iss
let snd_una t = t.snd_una
let snd_nxt t = t.snd_nxt
let rcv_nxt t = t.rcv_nxt
let srtt t = Rto.srtt t.rto
let bytes_acked t = t.n_bytes_acked
let bytes_received t = t.n_bytes_received
let retransmits t = t.n_retransmits
let segments_out t = t.n_segments_out

(* Sequence <-> send-buffer offset mapping. *)
let seq_of_offset t o = Seq32.add t.iss (1 + o)
let offset_of_seq t s = Seq32.diff s t.iss - 1

(* Sequence position of our FIN; meaningful only once [fin_queued]. *)
let fin_seq t = seq_of_offset t (Bytebuf.end_offset t.sndbuf)

let rcv_wnd t =
  (* Window = receive buffer minus bytes parked out of order in
     reassembly and minus in-order bytes a paused reader has not yet
     consumed, capped at what the 16-bit window field can carry. *)
  Int.max 0
    (Int.min 0xFFFF
       (t.config.recv_buf_size
       - Interval_buf.total_buffered t.reasm
       - Buffer.length t.recv_pending))

(* the only option we offer on our SYN / SYN-ACK *)
let syn_options t = [ Seg.Mss t.config.mss ]

(* ------------------------------------------------------------------ *)
(* Timer plumbing                                                     *)

let cancel_timer t slot =
  match slot with
  | Some id ->
    t.clock.cancel id;
    None
  | None -> None

let cancel_all_timers t =
  t.rtx_timer <- cancel_timer t t.rtx_timer;
  t.delack_timer <- cancel_timer t t.delack_timer;
  t.persist_timer <- cancel_timer t t.persist_timer

let delete t =
  if state t <> Closed then begin
    t.state <- Closed;
    cancel_all_timers t;
    t.actions.on_delete None
  end

(* ------------------------------------------------------------------ *)
(* Segment emission                                                   *)

let emit t seg =
  t.n_segments_out <- t.n_segments_out + 1;
  t.actions.emit seg

let mk_seg t ?(payload = "") ~flags ~seq () =
  Seg.make ~flags ~ack:t.rcv_nxt ~window:(rcv_wnd t) ~payload
    ~src_port:(snd t.local) ~dst_port:(snd t.remote) ~seq ()

let ack_flags = { Seg.no_flags with ack = true }

let send_ack_now t =
  t.delack_timer <- cancel_timer t t.delack_timer;
  emit t (mk_seg t ~flags:ack_flags ~seq:t.snd_nxt ())

let send_rst t ~seq =
  emit t
    (Seg.make
       ~flags:{ Seg.no_flags with rst = true; ack = true }
       ~ack:t.rcv_nxt ~window:0 ~src_port:(snd t.local)
       ~dst_port:(snd t.remote) ~seq ())

(* ------------------------------------------------------------------ *)
(* Output engine                                                      *)

let flight_size t = Seq32.diff t.snd_nxt t.snd_una

let effective_window t = Int.max 0 (Int.min t.snd_wnd t.cwnd)

let can_send_data t =
  match t.state with
  | Established | Close_wait | Fin_wait_1 | Closing | Last_ack -> true
  | Syn_sent | Syn_received | Fin_wait_2 | Time_wait | Closed -> false
(* Fin_wait_1/Closing/Last_ack: data already queued before close may still
   be draining. *)

let stop_persist t = t.persist_timer <- cancel_timer t t.persist_timer

let rec arm_rtx t =
  if t.rtx_timer = None then begin
    let delay = Rto.current t.rto in
    t.rtx_timer <- Some (t.clock.schedule delay (fun () -> on_rtx t))
  end

and restart_rtx t =
  t.rtx_timer <- cancel_timer t t.rtx_timer;
  arm_rtx t

(* Retransmit the first unacknowledged chunk (go-back from snd_una). *)
and retransmit_one t =
  t.n_retransmits <- t.n_retransmits + 1;
  Registry.Counter.incr t.ins.retransmits;
  t.rtt_probe <- None (* Karn's rule *);
  match t.state with
  | Syn_sent ->
    emit t
      (Seg.make
         ~flags:{ Seg.no_flags with syn = true }
         ~window:(rcv_wnd t)
         ~options:(syn_options t) ~src_port:(snd t.local)
         ~dst_port:(snd t.remote) ~seq:t.iss ())
  | Syn_received ->
    emit t
      (Seg.make
         ~flags:{ Seg.no_flags with syn = true; ack = true }
         ~ack:t.rcv_nxt
         ~window:(rcv_wnd t)
         ~options:(syn_options t) ~src_port:(snd t.local)
         ~dst_port:(snd t.remote) ~seq:t.iss ())
  | _ ->
    let data_end = seq_of_offset t (Bytebuf.end_offset t.sndbuf) in
    if Seq32.lt t.snd_una data_end then begin
      (* unacked payload exists: resend one MSS from snd_una *)
      let len = Int.min (effective_mss t) (Seq32.diff data_end t.snd_una) in
      let payload =
        Bytebuf.read t.sndbuf ~pos:(offset_of_seq t t.snd_una) ~len
      in
      let reaches_end = Seq32.equal (Seq32.add t.snd_una len) data_end in
      let fin_here = t.fin_sent && reaches_end in
      let flags = { ack_flags with psh = reaches_end; fin = fin_here } in
      emit t (mk_seg t ~payload ~flags ~seq:t.snd_una ())
    end
    else if t.fin_sent then
      (* only the FIN is outstanding *)
      emit t (mk_seg t ~flags:{ ack_flags with fin = true } ~seq:(fin_seq t) ())
    else send_ack_now t

and on_rtx t =
  t.rtx_timer <- None;
  if t.state <> Closed && Seq32.lt t.snd_una t.snd_max then begin
    t.retry_count <- t.retry_count + 1;
    let limit =
      match t.state with
      | Syn_sent | Syn_received -> max_syn_retries
      | _ -> max_data_retries
    in
    if t.retry_count > limit then begin
      let cb = t.on_reset in
      delete t;
      cb ()
    end
    else begin
      (* congestion response to a timeout: slow-start from one segment *)
      let mss = effective_mss t in
      t.ssthresh <- Int.max (flight_size t / 2) (2 * mss);
      t.cwnd <- mss;
      Rto.backoff t.rto;
      (match t.state with
      | Syn_sent | Syn_received -> retransmit_one t
      | _ -> go_back_n t);
      arm_rtx t
    end
  end

(* Rewind to the first unacknowledged byte and let the output engine
   slow-start through the gap. *)
and go_back_n t =
  t.rtt_probe <- None;
  t.snd_nxt <- t.snd_una;
  t.n_retransmits <- t.n_retransmits + 1;
  Registry.Counter.incr t.ins.retransmits;
  try_output t

and arm_persist t =
  if t.persist_timer = None then begin
    let delay =
      Int.min (Rto.current t.rto lsl t.persist_shift) (Time.sec 60.0)
    in
    t.persist_timer <-
      Some
        (t.clock.schedule delay (fun () ->
             t.persist_timer <- None;
             if t.state <> Closed && t.snd_wnd = 0 then begin
               t.persist_shift <- Int.min (t.persist_shift + 1) 6;
               (* 1-byte window probe *)
               let data_end =
                 seq_of_offset t (Bytebuf.end_offset t.sndbuf)
               in
               if Seq32.lt t.snd_nxt data_end then begin
                 let payload =
                   Bytebuf.read t.sndbuf ~pos:(offset_of_seq t t.snd_nxt)
                     ~len:1
                 in
                 emit t (mk_seg t ~payload ~flags:ack_flags ~seq:t.snd_nxt ());
                 (* the probe byte is real data on the wire: account for it
                    (the receiver may accept it even at window zero) *)
                 t.snd_nxt <- Seq32.succ t.snd_nxt;
                 t.snd_max <- Seq32.max t.snd_max t.snd_nxt;
                 arm_rtx t
               end
               else send_ack_now t;
               arm_persist t
             end))
  end

(* Push out as much new data as windows allow. *)
and try_output t =
  if can_send_data t then begin
    let mss = effective_mss t in
    let data_end = seq_of_offset t (Bytebuf.end_offset t.sndbuf) in
    let limit = Seq32.add t.snd_una (effective_window t) in
    let progress = ref true in
    while !progress do
      progress := false;
      let sendable = Seq32.diff data_end t.snd_nxt in
      let window_room = Seq32.diff limit t.snd_nxt in
      let len = Int.min mss (Int.min sendable window_room) in
      if len > 0 then begin
        let payload =
          Bytebuf.read t.sndbuf ~pos:(offset_of_seq t t.snd_nxt) ~len
        in
        let reaches_end = Seq32.equal (Seq32.add t.snd_nxt len) data_end in
        let fin_here = t.fin_queued && reaches_end in
        let flags = { ack_flags with psh = reaches_end; fin = fin_here } in
        t.delack_timer <- cancel_timer t t.delack_timer;
        emit t (mk_seg t ~payload ~flags ~seq:t.snd_nxt ());
        t.snd_nxt <- Seq32.add t.snd_nxt (len + if fin_here then 1 else 0);
        let frontier = Seq32.gt t.snd_nxt t.snd_max in
        t.snd_max <- Seq32.max t.snd_max t.snd_nxt;
        if fin_here then fin_was_sent t;
        (* Karn: time only segments that carry new data *)
        if t.rtt_probe = None && frontier then
          t.rtt_probe <- Some (t.snd_nxt, t.clock.now ());
        arm_rtx t;
        progress := true
      end
    done;
    (* FIN with no data left to send (first emission or a post-rewind
       retransmission) *)
    if
      t.fin_queued
      && Seq32.equal t.snd_nxt data_end
      && Seq32.diff limit t.snd_nxt >= 0
    then begin
      t.delack_timer <- cancel_timer t t.delack_timer;
      emit t (mk_seg t ~flags:{ ack_flags with fin = true } ~seq:t.snd_nxt ());
      t.snd_nxt <- Seq32.succ t.snd_nxt;
      t.snd_max <- Seq32.max t.snd_max t.snd_nxt;
      fin_was_sent t;
      arm_rtx t
    end;
    (* zero-window persist *)
    if
      t.snd_wnd = 0
      && Seq32.equal t.snd_una t.snd_nxt
      && Seq32.lt t.snd_nxt data_end
    then arm_persist t
  end

and fin_was_sent t =
  t.fin_sent <- true;
  match t.state with
  | Established | Syn_received -> t.state <- Fin_wait_1
  | Close_wait -> t.state <- Last_ack
  | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait | Closed
  | Syn_sent ->
    ()

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)

let make clock ~instruments:ins ~config ~local ~remote ~iss actions state =
  {
    clock;
    config;
    local;
    remote;
    actions;
    state;
    iss;
    sndbuf = Bytebuf.create ~capacity:send_buf_size;
    snd_una = iss;
    snd_nxt = iss;
    snd_max = iss;
    snd_wnd = 0;
    snd_wl1 = Seq32.zero;
    snd_wl2 = Seq32.zero;
    peer_mss = 536;
    fin_queued = false;
    fin_sent = false;
    send_full = false;
    irs = Seq32.zero;
    rcv_nxt = Seq32.zero;
    reasm = Interval_buf.create ~base:Seq32.zero;
    rcv_fin = None;
    eof_signalled = false;
    recv_paused = false;
    recv_pending = Buffer.create 0;
    rto =
      Rto.create ins.rto_ins ~init:rto_init ~min:rto_min ~max:rto_max ();
    rtx_timer = None;
    delack_timer = None;
    tw = None;
    persist_timer = None;
    persist_shift = 0;
    retry_count = 0;
    rtt_probe = None;
    retained = None;
    resync_skip = 0;
    replaying = false;
    retained_bytes = 0;
    retention_overflowed = false;
    checkpoint_base = 0;
    cwnd = 2 * config.mss;
    ssthresh = 1 lsl 30 (* RFC 5681: initially arbitrarily high *);
    dupacks = 0;
    on_established = (fun () -> ());
    on_data = (fun _ -> ());
    on_eof = (fun () -> ());
    on_drain = (fun () -> ());
    on_close = (fun () -> ());
    on_reset = (fun () -> ());
    n_bytes_acked = 0;
    n_bytes_received = 0;
    n_retransmits = 0;
    n_segments_out = 0;
    ins;
  }

let create_active clock ~instruments ~config ~local ~remote ~iss actions =
  let t =
    make clock ~instruments ~config ~local ~remote ~iss actions Syn_sent
  in
  emit t
    (Seg.make
       ~flags:{ Seg.no_flags with syn = true }
       ~window:(rcv_wnd t)
       ~options:(syn_options t)
       ~src_port:(snd local) ~dst_port:(snd remote) ~seq:iss ());
  t.snd_nxt <- Seq32.succ iss;
  t.snd_max <- t.snd_nxt;
  t.rtt_probe <- Some (t.snd_nxt, t.clock.now ());
  arm_rtx t;
  t

let accept_syn t (syn : Seg.t) =
  t.irs <- syn.seq;
  t.rcv_nxt <- Seq32.succ syn.seq;
  t.reasm <- Interval_buf.create ~base:t.rcv_nxt;
  (match Seg.mss_option syn with
  | Some m -> t.peer_mss <- m
  | None -> t.peer_mss <- 536);
  t.snd_wnd <- syn.window;
  t.snd_wl1 <- syn.seq;
  t.snd_wl2 <- syn.ack

let create_passive clock ~instruments ~config ~local ~remote ~iss actions
    ~syn =
  let t =
    make clock ~instruments ~config ~local ~remote ~iss actions Syn_received
  in
  accept_syn t syn;
  emit t
    (Seg.make
       ~flags:{ Seg.no_flags with syn = true; ack = true }
       ~ack:t.rcv_nxt
       ~window:(rcv_wnd t)
       ~options:(syn_options t) ~src_port:(snd local) ~dst_port:(snd remote)
       ~seq:iss ());
  t.snd_nxt <- Seq32.succ iss;
  t.snd_max <- t.snd_nxt;
  t.rtt_probe <- Some (t.snd_nxt, t.clock.now ());
  arm_rtx t;
  t

(* ------------------------------------------------------------------ *)
(* Application calls                                                  *)

let pause_reading t = t.recv_paused <- true

let resume_reading t =
  if t.recv_paused then begin
    t.recv_paused <- false;
    let closed = rcv_wnd t = 0 in
    if Buffer.length t.recv_pending > 0 then begin
      let data = Buffer.contents t.recv_pending in
      Buffer.clear t.recv_pending;
      t.on_data data
    end;
    (match t.tw with Some tw -> tw.tw_wnd <- rcv_wnd t | None -> ());
    (* the window may have been closed: advertise that it reopened *)
    if closed && state t <> Closed then send_ack_now t
  end

let recv_queue_length t = Buffer.length t.recv_pending

let send_space t = Bytebuf.free t.sndbuf

let send_rest t data =
  let allowed =
    match t.state with
    | Syn_sent | Syn_received | Established | Close_wait -> not t.fin_queued
    | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait | Closed ->
      false
  in
  if not allowed then 0
  else begin
    let n = Bytebuf.push t.sndbuf data in
    if n < String.length data then t.send_full <- true;
    if n > 0 then try_output t;
    n
  end

let send t data =
  (* After a hot-state restore the application replays its input and
     regenerates output from byte 0; everything below the snapshotted
     send-buffer end offset is already acked or carried in the snapshot
     and must be swallowed, not retransmitted.  The discard path bypasses
     the state/fin checks on purpose: the snapshot may be past
     ESTABLISHED (e.g. FIN_WAIT_1) while the replayed prefix is still
     draining. *)
  if t.resync_skip > 0 then begin
    let n = String.length data in
    if n <= t.resync_skip then begin
      t.resync_skip <- t.resync_skip - n;
      n
    end
    else begin
      let skip = t.resync_skip in
      t.resync_skip <- 0;
      skip + send_rest t (String.sub data skip (n - skip))
    end
  end
  else send_rest t data

let close t =
  match t.state with
  | Closed -> ()
  | Syn_sent ->
    (* nothing established yet: just delete *)
    delete t
  | Time_wait | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack -> ()
  | Syn_received | Established | Close_wait ->
    if not t.fin_queued then begin
      t.fin_queued <- true;
      try_output t
    end

let abort t =
  if state t <> Closed then begin
    (match t.state with
    | Syn_sent -> ()
    | _ -> send_rst t ~seq:t.snd_nxt);
    delete t
  end

(* ------------------------------------------------------------------ *)
(* TIME_WAIT                                                          *)

let time_wait_record t =
  let rto = Rto.export t.rto in
  {
    tw_iss = t.iss;
    tw_irs = t.irs;
    tw_snd_nxt = t.snd_max;
    tw_rcv_nxt = t.rcv_nxt;
    tw_wnd = rcv_wnd t;
    tw_snd_wnd = t.snd_wnd;
    tw_snd_wl1 = t.snd_wl1;
    tw_snd_wl2 = t.snd_wl2;
    tw_peer_mss = t.peer_mss;
    tw_mss = t.config.mss;
    tw_rtt =
      {
        rtt_srtt = Option.value rto.Rto.s_srtt ~default:Float.nan;
        rtt_var = rto.Rto.s_rttvar;
      };
    tw_rto_base = rto.Rto.s_base;
    tw_rto_shift = rto.Rto.s_shift;
    tw_cwnd = t.cwnd;
    tw_ssthresh = t.ssthresh;
    tw_retained = t.retained;
    tw_replay_base = t.checkpoint_base;
    tw_on_reset = t.on_reset;
    tw_closed = false;
  }

(* The stack swaps the TCB for its TIME_WAIT record, which answers from
   now on and expires 2 MSL later. *)
let enter_time_wait t =
  let first_entry = t.state <> Time_wait in
  t.state <- Time_wait;
  t.rtx_timer <- cancel_timer t t.rtx_timer;
  t.persist_timer <- cancel_timer t t.persist_timer;
  let tw = time_wait_record t in
  t.tw <- Some tw;
  t.actions.on_delete (Some tw);
  if first_entry then t.on_close ()

(* ------------------------------------------------------------------ *)
(* Input processing                                                   *)

let acceptable ~rcv_nxt ~wnd (seg : Seg.t) =
  let seg_len = Seg.seq_length seg in
  if seg_len = 0 then
    if wnd = 0 then Seq32.equal seg.seq rcv_nxt
    else Seq32.between ~low:rcv_nxt ~high:(Seq32.add rcv_nxt wnd) seg.seq
  else
    (* A segment that starts exactly at rcv_nxt is always acceptable, even
       with a zero window: when reordering parks a full buffer of
       out-of-order data, the advertised window collapses and the
       hole-filling retransmission would otherwise be rejected forever —
       a deadlock a real stack avoids the same way. *)
    Seq32.equal seg.seq rcv_nxt
    || (wnd > 0
       && Seq32.lt seg.seq (Seq32.add rcv_nxt wnd)
       && Seq32.gt (Seg.seq_end seg) rcv_nxt)

let acceptable_segment t seg =
  acceptable ~rcv_nxt:t.rcv_nxt ~wnd:(rcv_wnd t) seg

let schedule_ack t ~immediate =
  if immediate then send_ack_now t
  else
    match t.delack_timer with
    | Some _ ->
      (* second segment since the last ACK: ack now *)
      send_ack_now t
    | None ->
      t.delack_timer <-
        Some
          (t.clock.schedule delack_delay (fun () ->
               t.delack_timer <- None;
               if t.state <> Closed then
                 emit t (mk_seg t ~flags:ack_flags ~seq:t.snd_nxt ())))

(* true iff this call consumed the FIN (and so acknowledged it) *)
let process_fin_if_reached t =
  match t.rcv_fin with
  | Some fpos when Seq32.equal t.rcv_nxt fpos ->
    t.rcv_nxt <- Seq32.succ t.rcv_nxt;
    send_ack_now t;
    (* transition BEFORE signalling EOF, so an application that closes
       inside on_eof sees CLOSE_WAIT and ends up in LAST_ACK, not in a
       spurious simultaneous-close *)
    (match t.state with
    | Established -> t.state <- Close_wait
    | Fin_wait_1 ->
      (* our FIN acked? then both sides done *)
      if t.fin_sent && Seq32.ge t.snd_una (Seq32.succ (fin_seq t)) then
        enter_time_wait t
      else t.state <- Closing
    | Fin_wait_2 -> enter_time_wait t
    | Syn_received -> t.state <- Close_wait
    | Close_wait | Closing | Last_ack | Time_wait | Closed | Syn_sent -> ());
    if not t.eof_signalled then begin
      t.eof_signalled <- true;
      t.on_eof ()
    end;
    true
  | Some _ | None -> false

let deliver_payload t (seg : Seg.t) =
  if String.length seg.payload > 0 then begin
    (* SYN consumes a sequence position before the payload *)
    let data_seq = if seg.flags.syn then Seq32.succ seg.seq else seg.seq in
    let in_order = Seq32.equal data_seq t.rcv_nxt in
    Interval_buf.insert t.reasm ~seq:data_seq seg.payload;
    let delivered = Interval_buf.pop t.reasm ~max_len:max_int in
    if String.length delivered > 0 then begin
      t.rcv_nxt <- Seq32.add t.rcv_nxt (String.length delivered);
      t.n_bytes_received <- t.n_bytes_received + String.length delivered;
      (match t.retained with
      | Some chunks ->
        let nb = t.retained_bytes + String.length delivered in
        if nb > t.config.retention_budget then begin
          (* over budget: the replay prefix is irrecoverable, so keeping
             a truncated history would be worse than keeping none.  Drop
             it; the orchestrator isolates the connection at the next
             reintegration — unless a later application {!checkpoint}
             declares the lost prefix unnecessary and resurrects
             retention at the then-current input position. *)
          t.checkpoint_base <- t.checkpoint_base + nb;
          t.retained <- None;
          t.retained_bytes <- 0;
          t.retention_overflowed <- true;
          Registry.Counter.incr t.ins.retention_overflows
        end
        else begin
          t.retained <- Some (delivered :: chunks);
          t.retained_bytes <- nb;
          Registry.Counter.add t.ins.retention_bytes (String.length delivered)
        end
      | None ->
        (* after an overflow, keep the input position current so a
           resurrecting checkpoint lands at the right replay base *)
        if t.retention_overflowed then
          t.checkpoint_base <- t.checkpoint_base + String.length delivered);
      (match t.state with
      | Established | Fin_wait_1 | Fin_wait_2 ->
        if t.recv_paused then Buffer.add_string t.recv_pending delivered
        else t.on_data delivered
      | Syn_received | Syn_sent | Close_wait | Closing | Last_ack
      | Time_wait | Closed ->
        ())
    end;
    (* A FIN this data reached was acknowledged at once, data and all,
       so no other ACK follows it.  Otherwise out-of-order segments and
       gap fills are acknowledged immediately so the sender can
       fast-retransmit; in-order data uses delayed ACKs. *)
    if not (process_fin_if_reached t) then
      let immediate = (not in_order) || String.length delivered = 0 in
      match t.state with
      | Closed -> ()
      | Time_wait -> if immediate then send_ack_now t
      | Syn_sent | Syn_received | Established | Fin_wait_1 | Fin_wait_2
      | Close_wait | Closing | Last_ack ->
        schedule_ack t ~immediate
  end

let note_fin t (seg : Seg.t) =
  if seg.flags.fin then begin
    let fpos = Seq32.add seg.seq (String.length seg.payload
                                  + if seg.flags.syn then 1 else 0) in
    (match t.rcv_fin with
    | None -> t.rcv_fin <- Some fpos
    | Some _ -> ());
    ignore (process_fin_if_reached t)
  end

let update_send_window t (seg : Seg.t) =
  if
    Seq32.lt t.snd_wl1 seg.seq
    || (Seq32.equal t.snd_wl1 seg.seq && Seq32.le t.snd_wl2 seg.ack)
  then begin
    let opened = seg.window > 0 && t.snd_wnd = 0 in
    t.snd_wnd <- seg.window;
    t.snd_wl1 <- seg.seq;
    t.snd_wl2 <- seg.ack;
    if opened then begin
      stop_persist t;
      t.persist_shift <- 0
    end
  end

let congestion_on_ack t acked =
  if acked > 0 then begin
    let mss = effective_mss t in
    if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd + mss
    else t.cwnd <- t.cwnd + Int.max 1 (mss * mss / t.cwnd)
  end

let fast_retransmit t =
  let mss = effective_mss t in
  t.ssthresh <- Int.max (flight_size t / 2) (2 * mss);
  t.cwnd <- t.ssthresh;
  retransmit_one t;
  restart_rtx t

(* The path this connection's segments leave through has just changed
   (DESIGN.md 7.22): whatever was in flight may have died with the old
   one, and the peer's own timer is backed off.  Act as an RTO would,
   minus the doubling and with the stack's two-segment initial window
   (one segment would sit behind the peer's delayed ACK); with nothing
   in flight, re-announce [rcv_nxt] so a peer whose data we already
   hold stops retransmitting it.  Half-open connections are left to
   their SYN timers: hot state transfer cannot carry them, so one that
   a kick completed on a survivor about to re-pair would be pinned solo
   and die with it, where a client still in SYN_SENT retries into
   whichever replica then owns the address.  False when the state makes
   it a no-op. *)
let kick t =
  match t.state with
  | Syn_sent | Syn_received | Time_wait | Closed -> false
  | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
    (if Seq32.lt t.snd_una t.snd_max then begin
      let mss = effective_mss t in
      t.ssthresh <- Int.max (flight_size t / 2) (2 * mss);
      t.cwnd <- Int.min t.cwnd (2 * mss);
      t.retry_count <- 0;
      Rto.reset_backoff t.rto;
      go_back_n t;
      restart_rtx t
    end
    else send_ack_now t);
    true

let process_ack t (seg : Seg.t) =
  if Seq32.gt seg.ack t.snd_max then
    (* acks something we never sent: resynchronize the peer *)
    send_ack_now t
  else if Seq32.gt seg.ack t.snd_una then begin
    let acked = Seq32.diff seg.ack t.snd_una in
    t.snd_una <- seg.ack;
    (* a cumulative ack can overtake a rewound snd_nxt; restore the
       invariant snd_una <= snd_nxt before any callback (on_drain) can
       re-enter the output engine *)
    t.snd_nxt <- Seq32.max t.snd_nxt t.snd_una;
    t.dupacks <- 0;
    t.retry_count <- 0;
    Rto.reset_backoff t.rto;
    (* RTT sample (Karn: probe cleared on any retransmission) *)
    (match t.rtt_probe with
    | Some (pseq, sent_at) when Seq32.ge seg.ack pseq ->
      Rto.sample t.rto (t.clock.now () - sent_at);
      t.rtt_probe <- None
    | Some _ | None -> ());
    (* release acked payload bytes from the send buffer *)
    let data_ack =
      (* clip the ack to the payload region: SYN and FIN occupy sequence
         space but no buffer space *)
      let lo = Seq32.succ t.iss in
      if Seq32.lt seg.ack lo then 0
      else
        let o = offset_of_seq t seg.ack in
        Int.min o (Bytebuf.end_offset t.sndbuf)
    in
    if data_ack > Bytebuf.start_offset t.sndbuf then begin
      let released = data_ack - Bytebuf.start_offset t.sndbuf in
      t.n_bytes_acked <- t.n_bytes_acked + released;
      Bytebuf.release_to t.sndbuf ~pos:data_ack;
      if t.send_full && Bytebuf.free t.sndbuf > 0 then begin
        t.send_full <- false;
        t.on_drain ()
      end
    end;
    congestion_on_ack t acked;
    update_send_window t seg;
    t.snd_nxt <- Seq32.max t.snd_nxt t.snd_una;
    if Seq32.equal t.snd_una t.snd_max then
      t.rtx_timer <- cancel_timer t t.rtx_timer
    else restart_rtx t;
    (* our FIN acknowledged? *)
    if t.fin_sent && Seq32.ge t.snd_una (Seq32.succ (fin_seq t)) then begin
      (* every byte is acked and no send follows a FIN: give the ring's
         storage back, keeping the offsets (FIN_WAIT_2 and TIME_WAIT can
         outlive the transfer by seconds) *)
      t.sndbuf <-
        Bytebuf.of_string ~capacity:send_buf_size
          ~start_offset:(Bytebuf.end_offset t.sndbuf) "";
      match t.state with
      | Fin_wait_1 -> t.state <- Fin_wait_2
      | Closing -> enter_time_wait t
      | Last_ack ->
        let cb = t.on_close in
        delete t;
        cb ()
      | Established | Syn_sent | Syn_received | Fin_wait_2 | Close_wait
      | Time_wait | Closed ->
        ()
    end;
    try_output t
  end
  else begin
    (* old or duplicate ack *)
    update_send_window t seg;
    if
      Seq32.equal seg.ack t.snd_una
      && String.length seg.payload = 0
      && (not seg.flags.syn) && (not seg.flags.fin)
      && Seq32.lt t.snd_una t.snd_max
    then begin
      t.dupacks <- t.dupacks + 1;
      if t.dupacks = 3 then fast_retransmit t
    end;
    try_output t
  end

let handle_reset t =
  let cb = t.on_reset in
  delete t;
  cb ()

let segment_in_syn_sent t (seg : Seg.t) =
  if seg.flags.ack && not (Seq32.between ~low:(Seq32.succ t.iss)
                             ~high:(Seq32.succ t.snd_nxt) seg.ack)
  then begin
    if not seg.flags.rst then send_rst t ~seq:seg.ack
  end
  else if seg.flags.rst then (if seg.flags.ack then handle_reset t)
  else if seg.flags.syn then begin
    accept_syn t seg;
    if seg.flags.ack then begin
      t.snd_una <- seg.ack;
      t.rtx_timer <- cancel_timer t t.rtx_timer;
      (match t.rtt_probe with
      | Some (pseq, sent_at) when Seq32.ge seg.ack pseq ->
        Rto.sample t.rto (t.clock.now () - sent_at);
        t.rtt_probe <- None
      | Some _ | None -> ());
      t.state <- Established;
      send_ack_now t;
      t.on_established ();
      deliver_payload t seg;
      note_fin t seg;
      try_output t
    end
    else begin
      (* simultaneous open *)
      t.state <- Syn_received;
      emit t
        (Seg.make
           ~flags:{ Seg.no_flags with syn = true; ack = true }
           ~ack:t.rcv_nxt
           ~window:(rcv_wnd t)
           ~options:(syn_options t) ~src_port:(snd t.local)
           ~dst_port:(snd t.remote) ~seq:t.iss ());
      arm_rtx t
    end
  end

(* ------------------------------------------------------------------ *)
(* Hot state transfer (snapshot / restore)                            *)

(* A self-contained, plain-data image of a connection: every field is an
   int, string, bool, option or list thereof, so structural equality and
   a flat binary codec are both valid on it.  Sequence numbers travel as
   [Seq32.t] (an int underneath). *)
type snapshot = {
  sn_state : state;
  sn_local : Ipaddr.t * int;
  sn_remote : Ipaddr.t * int;
  sn_iss : Seq32.t;
  sn_sndbuf_start : int;
  sn_sndbuf_data : string;
  sn_snd_una : Seq32.t;
  sn_snd_max : Seq32.t;
  sn_snd_wnd : int;
  sn_snd_wl1 : Seq32.t;
  sn_snd_wl2 : Seq32.t;
  sn_peer_mss : int;
  sn_fin_queued : bool;
  sn_fin_sent : bool;
  sn_irs : Seq32.t;
  sn_rcv_nxt : Seq32.t;
  sn_reasm : (Seq32.t * string) list;
  sn_rcv_fin : Seq32.t option;
  sn_eof_signalled : bool;
  sn_srtt : float option;
  sn_rttvar : float;
  sn_rto_base : int;
  sn_rto_shift : int;
  sn_cwnd : int;
  sn_ssthresh : int;
  sn_retained_input : string list;
  sn_replay_base : int;
}

(* A handle in TIME_WAIT passes retention changes on to its record,
   which is what a snapshot reads. *)
let sync_retention t =
  match t.tw with
  | Some tw ->
    tw.tw_retained <- t.retained;
    tw.tw_replay_base <- t.checkpoint_base
  | None -> ()

(* Application checkpoint: the service declares it no longer needs the
   input prefix to rebuild its per-connection state, so the retained
   history is truncated at the current delivery boundary.  After a
   retention-budget overflow the same declaration covers the lost
   prefix, so retention (and with it transferability) is resurrected at
   the current input position.  A no-op on connections that never
   retained. *)
let checkpoint t =
  (match t.retained with
  | Some _ ->
    let dropped = t.retained_bytes in
    if dropped > 0 then begin
      t.checkpoint_base <- t.checkpoint_base + dropped;
      t.retained <- Some [];
      t.retained_bytes <- 0;
      Registry.Counter.add t.ins.retention_truncated dropped
    end;
    Registry.Counter.incr t.ins.checkpoints
  | None ->
    if t.retention_overflowed then begin
      t.retention_overflowed <- false;
      t.retained <- Some [];
      t.retained_bytes <- 0;
      Registry.Counter.incr t.ins.checkpoints
    end);
  sync_retention t

let enable_input_retention t =
  (* never after an overflow: the replay prefix is gone for good, and a
     partial history would silently corrupt a restored replica (only an
     application {!checkpoint} may resurrect retention — it declares the
     prefix unnecessary) *)
  if t.retained = None && not t.retention_overflowed then begin
    t.retained <- Some [];
    sync_retention t
  end

let input_retention_enabled t = t.retained <> None
let input_retention_overflowed t = t.retention_overflowed
let replay_base t = t.checkpoint_base
let retained_input_bytes t = t.retained_bytes

(* What a bridge re-arms its merge state around after hot state
   transfer, read when the transfer completes. *)
type frontier = {
  fr_iss : Seq32.t;
  fr_snd_una : Seq32.t;
  fr_rcv_nxt : Seq32.t;
  fr_rcv_fin : Seq32.t option;
  fr_eof_signalled : bool;
  fr_window : int;
  fr_mss : int;
}

module Tw = struct
  type t = tw

  type verdict =
    | Ignore
    | Ack of Seg.t
    | Ack_restart of Seg.t
    | Reset of Seg.t option

  let state tw = if tw.tw_closed then Closed else Time_wait
  let close tw = tw.tw_closed <- true
  let raise_reset tw = tw.tw_on_reset ()
  let input_retention_enabled tw = tw.tw_retained <> None

  let ack tw (seg : Seg.t) =
    Seg.make ~flags:ack_flags ~ack:tw.tw_rcv_nxt ~window:tw.tw_wnd
      ~src_port:seg.dst_port ~dst_port:seg.src_port ~seq:tw.tw_snd_nxt ()

  (* [segment_arrives] as it treats a TCB in TIME_WAIT, where nothing is
     outstanding: an unacceptable segment is re-acked (a retransmitted
     FIN also restarts 2 MSL), an RST or a SYN inside the window ends the
     connection, an ACK for data never sent is re-acked, and any other
     ACK may update the send window.  Segment text is ignored (RFC 793:
     the peer's FIN came first). *)
  let input tw (seg : Seg.t) =
    if not (acceptable ~rcv_nxt:tw.tw_rcv_nxt ~wnd:tw.tw_wnd seg) then
      if seg.flags.rst then Ignore
      else if seg.flags.fin then Ack_restart (ack tw seg)
      else Ack (ack tw seg)
    else if seg.flags.rst then Reset None
    else if seg.flags.syn && Seq32.gt seg.seq tw.tw_rcv_nxt then
      Reset
        (Some
           (Seg.make
              ~flags:{ Seg.no_flags with rst = true; ack = true }
              ~ack:tw.tw_rcv_nxt ~window:0 ~src_port:seg.dst_port
              ~dst_port:seg.src_port ~seq:tw.tw_snd_nxt ()))
    else if not seg.flags.ack then Ignore
    else if Seq32.gt seg.ack tw.tw_snd_nxt then Ack (ack tw seg)
    else begin
      if
        Seq32.lt tw.tw_snd_wl1 seg.seq
        || (Seq32.equal tw.tw_snd_wl1 seg.seq && Seq32.le tw.tw_snd_wl2 seg.ack)
      then begin
        tw.tw_snd_wnd <- seg.window;
        tw.tw_snd_wl1 <- seg.seq;
        tw.tw_snd_wl2 <- seg.ack
      end;
      Ignore
    end

  let snapshot tw ~local ~remote =
    {
      sn_state = state tw;
      sn_local = local;
      sn_remote = remote;
      sn_iss = tw.tw_iss;
      (* the ring was emptied when our FIN was acked, at the FIN's offset *)
      sn_sndbuf_start = Seq32.diff tw.tw_snd_nxt tw.tw_iss - 2;
      sn_sndbuf_data = "";
      sn_snd_una = tw.tw_snd_nxt;
      sn_snd_max = tw.tw_snd_nxt;
      sn_snd_wnd = tw.tw_snd_wnd;
      sn_snd_wl1 = tw.tw_snd_wl1;
      sn_snd_wl2 = tw.tw_snd_wl2;
      sn_peer_mss = tw.tw_peer_mss;
      sn_fin_queued = true;
      sn_fin_sent = true;
      sn_irs = tw.tw_irs;
      sn_rcv_nxt = tw.tw_rcv_nxt;
      sn_reasm = [];
      sn_rcv_fin = Some (Seq32.add tw.tw_rcv_nxt (-1));
      sn_eof_signalled = true;
      sn_srtt =
        (if Float.is_nan tw.tw_rtt.rtt_srtt then None
         else Some tw.tw_rtt.rtt_srtt);
      sn_rttvar = tw.tw_rtt.rtt_var;
      sn_rto_base = tw.tw_rto_base;
      sn_rto_shift = tw.tw_rto_shift;
      sn_cwnd = tw.tw_cwnd;
      sn_ssthresh = tw.tw_ssthresh;
      sn_retained_input =
        (match tw.tw_retained with Some chunks -> List.rev chunks | None -> []);
      sn_replay_base = tw.tw_replay_base;
    }

  let frontier tw =
    {
      fr_iss = tw.tw_iss;
      fr_snd_una = tw.tw_snd_nxt;
      fr_rcv_nxt = tw.tw_rcv_nxt;
      fr_rcv_fin = Some (Seq32.add tw.tw_rcv_nxt (-1));
      fr_eof_signalled = true;
      fr_window = tw.tw_wnd;
      fr_mss = Int.min tw.tw_mss tw.tw_peer_mss;
    }
end

let frontier t =
  {
    fr_iss = t.iss;
    fr_snd_una = t.snd_una;
    fr_rcv_nxt = t.rcv_nxt;
    fr_rcv_fin = t.rcv_fin;
    fr_eof_signalled = t.eof_signalled;
    fr_window = rcv_wnd t;
    fr_mss = effective_mss t;
  }

let snapshot t =
  match t.tw with
  | Some tw -> Tw.snapshot tw ~local:t.local ~remote:t.remote
  | None ->
    let rto = Rto.export t.rto in
    {
      sn_state = t.state;
      sn_local = t.local;
      sn_remote = t.remote;
      sn_iss = t.iss;
      sn_sndbuf_start = Bytebuf.start_offset t.sndbuf;
      sn_sndbuf_data =
        Bytebuf.read t.sndbuf
          ~pos:(Bytebuf.start_offset t.sndbuf)
          ~len:(Bytebuf.length t.sndbuf);
      sn_snd_una = t.snd_una;
      sn_snd_max = t.snd_max;
      sn_snd_wnd = t.snd_wnd;
      sn_snd_wl1 = t.snd_wl1;
      sn_snd_wl2 = t.snd_wl2;
      sn_peer_mss = t.peer_mss;
      sn_fin_queued = t.fin_queued;
      sn_fin_sent = t.fin_sent;
      sn_irs = t.irs;
      sn_rcv_nxt = t.rcv_nxt;
      sn_reasm = Interval_buf.islands t.reasm;
      sn_rcv_fin = t.rcv_fin;
      sn_eof_signalled = t.eof_signalled;
      sn_srtt = rto.Rto.s_srtt;
      sn_rttvar = rto.Rto.s_rttvar;
      sn_rto_base = rto.Rto.s_base;
      sn_rto_shift = rto.Rto.s_shift;
      sn_cwnd = t.cwnd;
      sn_ssthresh = t.ssthresh;
      sn_retained_input =
        (match t.retained with Some chunks -> List.rev chunks | None -> []);
      sn_replay_base = t.checkpoint_base;
    }

(* Translate the send-side sequence space by [n] (receive side and
   [snd_wl1], which carries a peer sequence number, are untouched).  Used
   to move a snapshot taken in the surviving primary's space into the
   wire (secondary) space before shipping: wire seq = primary seq − Δ. *)
let shift_snapshot s n =
  let sh x = Seq32.add x n in
  {
    s with
    sn_iss = sh s.sn_iss;
    sn_snd_una = sh s.sn_snd_una;
    sn_snd_max = sh s.sn_snd_max;
    sn_snd_wl2 = sh s.sn_snd_wl2;
  }

let restore clock ~instruments ~config actions (s : snapshot) =
  let t =
    make clock ~instruments ~config ~local:s.sn_local ~remote:s.sn_remote
      ~iss:s.sn_iss actions s.sn_state
  in
  t.sndbuf <-
    Bytebuf.of_string ~capacity:send_buf_size
      ~start_offset:s.sn_sndbuf_start s.sn_sndbuf_data;
  t.snd_una <- s.sn_snd_una;
  (* resume transmitting at the frontier; a hole below it is repaired by
     the ordinary go-back-N RTO / fast-retransmit machinery *)
  t.snd_nxt <- s.sn_snd_max;
  t.snd_max <- s.sn_snd_max;
  t.snd_wnd <- s.sn_snd_wnd;
  t.snd_wl1 <- s.sn_snd_wl1;
  t.snd_wl2 <- s.sn_snd_wl2;
  t.peer_mss <- s.sn_peer_mss;
  t.fin_queued <- s.sn_fin_queued;
  t.fin_sent <- s.sn_fin_sent;
  t.irs <- s.sn_irs;
  t.rcv_nxt <- s.sn_rcv_nxt;
  t.reasm <- Interval_buf.create ~base:s.sn_rcv_nxt;
  List.iter (fun (seq, data) -> Interval_buf.insert t.reasm ~seq data)
    s.sn_reasm;
  t.rcv_fin <- s.sn_rcv_fin;
  t.eof_signalled <- s.sn_eof_signalled;
  Rto.import t.rto
    {
      Rto.s_srtt = s.sn_srtt;
      s_rttvar = s.sn_rttvar;
      s_base = s.sn_rto_base;
      s_shift = s.sn_rto_shift;
    };
  t.cwnd <- s.sn_cwnd;
  t.ssthresh <- s.sn_ssthresh;
  t.retained <- Some (List.rev s.sn_retained_input);
  t.retained_bytes <-
    List.fold_left
      (fun acc c -> acc + String.length c)
      0 s.sn_retained_input;
  t.checkpoint_base <- s.sn_replay_base;
  (* the application will replay the retained input and regenerate its
     output stream from byte 0: swallow the prefix the snapshot already
     accounts for *)
  t.resync_skip <- s.sn_sndbuf_start + String.length s.sn_sndbuf_data;
  t

(* Bring a freshly restored connection to life: replay the application's
   view of history (established, retained input, EOF) so the service
   layer rebuilds its per-connection state, then re-arm timers.  Output
   regenerated during the replay is swallowed by [resync_skip] up to the
   snapshot point, after which genuinely new bytes flow normally. *)
let resume_restored t =
  t.replaying <- true;
  t.on_established ();
  (match t.retained with
  | Some chunks -> List.iter t.on_data (List.rev chunks)
  | None -> ());
  if t.eof_signalled then t.on_eof ();
  t.replaying <- false;
  (* Regeneration is over: an application that derives its output from
     the replayed input has re-sent its history synchronously inside the
     callbacks above (swallowed sends never exert backpressure, so a
     drain-pumped writer runs to the end of its history without
     yielding).  An application that cannot regenerate — a relay whose
     output originates on another connection — sends nothing during
     replay.  Either way the snapshot's send buffer already carries
     every unacknowledged byte, so whatever skip budget remains would
     only swallow genuinely new data: cancel it. *)
  t.resync_skip <- 0;
  (* a restored TIME_WAIT connection must still answer retransmitted
     FINs, and still eventually evaporate: its record takes over, for
     2 MSL from now *)
  if t.state = Time_wait then enter_time_wait t;
  if Seq32.lt t.snd_una t.snd_max then arm_rtx t;
  try_output t

let snd_max t = t.snd_max
let fin_sent t = t.fin_sent
let replaying t = t.replaying

let segment_arrives t (seg : Seg.t) =
  (* once swapped out, the TIME_WAIT record answers for the connection *)
  if t.state = Closed || Option.is_some t.tw then ()
  else
    match t.state with
    | Syn_sent -> segment_in_syn_sent t seg
    | Closed -> ()
    | _ ->
      if not (acceptable_segment t seg) then begin
        (* old duplicate or out-of-window: re-ack unless it is an RST *)
        if not seg.flags.rst then send_ack_now t
      end
      else if seg.flags.rst then handle_reset t
      else if seg.flags.syn && Seq32.gt seg.seq t.rcv_nxt then begin
        (* new SYN inside the window: fatal *)
        send_rst t ~seq:t.snd_nxt;
        handle_reset t
      end
      else if not seg.flags.ack then ()
      else begin
        (match t.state with
        | Syn_received ->
          if
            Seq32.between ~low:t.snd_una ~high:(Seq32.succ t.snd_nxt)
              seg.ack
          then begin
            t.state <- Established;
            t.retry_count <- 0;
            t.rtx_timer <- cancel_timer t t.rtx_timer;
            (match t.rtt_probe with
            | Some (pseq, sent_at) when Seq32.ge seg.ack pseq ->
              Rto.sample t.rto (t.clock.now () - sent_at);
              t.rtt_probe <- None
            | Some _ | None -> ());
            t.snd_wnd <- seg.window;
            t.snd_wl1 <- seg.seq;
            t.snd_wl2 <- seg.ack;
            t.on_established ()
          end
          else begin
            send_rst t ~seq:seg.ack;
            handle_reset t
          end
        | _ -> ());
        if t.state <> Closed then begin
          process_ack t seg;
          deliver_payload t seg;
          note_fin t seg
        end
      end
