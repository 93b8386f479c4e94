(** A TCP connection endpoint (transmission control block).

    Implements the RFC 793 state machine with sliding-window flow control,
    MSS negotiation, delayed acknowledgments, Jacobson RTO with Karn's rule
    and exponential backoff, Reno congestion control with fast retransmit,
    zero-window persist probes, and full FIN/TIME_WAIT teardown.

    A [Tcb.t] knows nothing about replication: the failover bridge operates
    purely on the segments this module emits and consumes, which is the
    transparency property the paper claims. *)

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

val state_to_string : state -> string

type t

(** Callbacks a connection raises toward the application.  All default to
    no-ops and can be set at any time. *)

val set_on_established : t -> (unit -> unit) -> unit
(** Connection reached ESTABLISHED (handshake finished). *)

val set_on_data : t -> (string -> unit) -> unit
(** In-order payload delivery.  The receive window reopens as data is
    delivered (the application consumes eagerly) unless reading is
    paused. *)

val pause_reading : t -> unit
(** Application backpressure: in-order data is parked in the receive
    queue (shrinking the advertised window) instead of being delivered.
    A slow consumer closes its window, which is what the bridge's
    joint-window rule (§3.2) propagates to the client. *)

val resume_reading : t -> unit
(** Deliver everything parked and reopen the window (advertising it with
    a window update if it had closed). *)

val recv_queue_length : t -> int

val set_on_eof : t -> (unit -> unit) -> unit
(** Peer sent FIN; no more data will arrive. *)

val set_on_drain : t -> (unit -> unit) -> unit
(** Send-buffer space became available after being full. *)

val set_on_close : t -> (unit -> unit) -> unit
(** Connection fully terminated (reached CLOSED, possibly via TIME_WAIT
    which is reported at entry). *)

val set_on_reset : t -> (unit -> unit) -> unit
(** Connection aborted: peer RST or retry exhaustion.  It never fires
    after the close callback: an RST that ends TIME_WAIT is not
    reported. *)

(** {1 Creation} — used by {!Stack}, not by applications directly. *)

type instruments
(** The registry instruments every connection reports to: the stack's
    [retransmits], [rto_backoffs] and [rtt_us], and the world-absolute
    [statex.{retention_bytes,retention_overflows,checkpoints,
    retention_truncated_bytes}]. *)

val instruments : Tcpfo_obs.Obs.t -> instruments
(** Resolve (create-or-get) the bundle under a stack's [tcp] scope.  A
    stack does this once, on its first connection, and passes the
    bundle to every TCB it creates. *)

type tw
(** The compact record a connection leaves in the demux table when it
    enters TIME_WAIT (see {!Tw}). *)

type actions = {
  emit : Tcpfo_packet.Tcp_segment.t -> unit;
      (** transmit a segment to the peer *)
  on_delete : tw option -> unit;
      (** remove me from the demux table; with [Some tw] (on entering
          TIME_WAIT) the record takes my place there *)
}

val create_active :
  Tcpfo_sim.Clock.t ->
  instruments:instruments ->
  config:Tcp_config.t ->
  local:Tcpfo_packet.Ipaddr.t * int ->
  remote:Tcpfo_packet.Ipaddr.t * int ->
  iss:Tcpfo_util.Seq32.t ->
  actions ->
  t
(** Client-side open: emits the initial SYN immediately.  The TCB
    reports to [instruments] (a test without a stack can pass
    [instruments (Obs.silent ())]). *)

val create_passive :
  Tcpfo_sim.Clock.t ->
  instruments:instruments ->
  config:Tcp_config.t ->
  local:Tcpfo_packet.Ipaddr.t * int ->
  remote:Tcpfo_packet.Ipaddr.t * int ->
  iss:Tcpfo_util.Seq32.t ->
  actions ->
  syn:Tcpfo_packet.Tcp_segment.t ->
  t
(** Server-side open from a received SYN: emits the SYN-ACK. *)

val segment_arrives : t -> Tcpfo_packet.Tcp_segment.t -> unit

val kick : t -> bool
(** The path this connection's segments leave through changed under it
    (a failover survivor now owns the address, or diverts to a new
    replica).  With data or a FIN in flight: reset the RTO backoff and
    retry count, halve [ssthresh] as a timeout would, cap the
    congestion window at two segments, retransmit from [snd_una] and
    restart the retransmission timer.  With nothing in flight: send one
    ACK at [rcv_nxt].  A no-op returning [false] in SYN_SENT,
    SYN_RECEIVED, TIME_WAIT and CLOSED. *)

(** {1 Application interface} *)

val send : t -> string -> int
(** Append to the send buffer; returns bytes accepted (0 when full or when
    sending is no longer allowed). *)

val send_space : t -> int
(** Free send-buffer space. *)

val close : t -> unit
(** Orderly release: FIN after all buffered data.  Further [send]s are
    rejected. *)

val abort : t -> unit
(** Send RST and drop the connection. *)

val state : t -> state
(** In TIME_WAIT the connection's record decides: [Time_wait] until it
    leaves the demux table (2 MSL, an RST, an abort), [Closed] after. *)

val local_endpoint : t -> Tcpfo_packet.Ipaddr.t * int
val remote_endpoint : t -> Tcpfo_packet.Ipaddr.t * int
val effective_mss : t -> int
(** min(our configured MSS, peer's advertised MSS). *)

val iss : t -> Tcpfo_util.Seq32.t
val snd_una : t -> Tcpfo_util.Seq32.t
val snd_nxt : t -> Tcpfo_util.Seq32.t
val rcv_nxt : t -> Tcpfo_util.Seq32.t

val snd_max : t -> Tcpfo_util.Seq32.t
(** Highest sequence number ever transmitted. *)

val fin_sent : t -> bool

val unacked_output :
  t -> seq:Tcpfo_util.Seq32.t -> len:int -> string option
(** The [len] bytes of output from sequence [seq], read from the send
    buffer, or [None] unless it still holds them all (it holds every byte
    from [snd_una] on).  The primary's bridge merges these instead of
    keeping its own copy of the connection's output. *)

(** {1 Hot state transfer}

    A connection can be frozen into a plain-data {!snapshot}, shipped to
    another host, and {!restore}d into a fresh TCB that resumes exactly
    where the original stood.  The application layer is rebuilt by
    replaying the retained input ({!resume_restored}); the output it
    regenerates is swallowed up to the snapshot point, so the wire
    stream continues byte-for-byte (paper §3.4 transparency, extended to
    replica reintegration). *)

type snapshot = {
  sn_state : state;
  sn_local : Tcpfo_packet.Ipaddr.t * int;
  sn_remote : Tcpfo_packet.Ipaddr.t * int;
  sn_iss : Tcpfo_util.Seq32.t;
  sn_sndbuf_start : int;
  sn_sndbuf_data : string;
  sn_snd_una : Tcpfo_util.Seq32.t;
  sn_snd_max : Tcpfo_util.Seq32.t;
  sn_snd_wnd : int;
  sn_snd_wl1 : Tcpfo_util.Seq32.t;
  sn_snd_wl2 : Tcpfo_util.Seq32.t;
  sn_peer_mss : int;
  sn_fin_queued : bool;
  sn_fin_sent : bool;
  sn_irs : Tcpfo_util.Seq32.t;
  sn_rcv_nxt : Tcpfo_util.Seq32.t;
  sn_reasm : (Tcpfo_util.Seq32.t * string) list;
  sn_rcv_fin : Tcpfo_util.Seq32.t option;
  sn_eof_signalled : bool;
  sn_srtt : float option;
  sn_rttvar : float;
  sn_rto_base : int;
  sn_rto_shift : int;
  sn_cwnd : int;
  sn_ssthresh : int;
  sn_retained_input : string list;
      (** in-order application-delivery chunks, boundaries preserved *)
  sn_replay_base : int;
      (** input-stream offset where [sn_retained_input] begins: 0 for a
          full history, positive after a {!checkpoint} truncated the
          prefix (the restored replica's replay starts mid-stream) *)
}

val enable_input_retention : t -> unit
(** Start keeping every in-order byte delivered to the application, so
    the connection becomes transferable.  Idempotent.  The failover
    orchestrator enables this on every replicated server connection at
    accept time.  Retained input is capped by
    {!Tcp_config.retention_budget}: once in-order deliveries outgrow
    it, the history is dropped, the connection stops being transferable
    (re-enabling is a no-op — the replay prefix is gone), and
    [statex.retention_overflows] is bumped.  A no-op after such an
    overflow; only {!checkpoint} can resurrect retention, because it
    carries the application's declaration that the lost prefix is not
    needed. *)

val input_retention_enabled : t -> bool

val input_retention_overflowed : t -> bool
(** The retention budget was exceeded at some point: the connection
    can no longer be hot-transferred and will be isolated (continue
    solo) at the next reintegration — unless a later {!checkpoint}
    resurrects retention. *)

val checkpoint : t -> unit
(** Application checkpoint: truncate the retained input history at the
    current delivery boundary.  The caller declares its per-connection
    state no longer depends on the truncated prefix, so a restored
    replica's replay starts at the checkpoint instead of byte 0 — this
    both bounds snapshot size (delta snapshots ship only post-checkpoint
    input) and keeps long-lived connections under
    {!Tcp_config.retention_budget} forever.  After an overflow the same
    declaration covers the lost prefix, so retention and
    transferability are resurrected at the current input position.
    Bumps [statex.checkpoints]; truncated bytes are accounted in
    [statex.retention_truncated_bytes].  A no-op on connections that
    never retained.  Applications call this at their own safe
    points. *)

val replay_base : t -> int
(** Input-stream offset where the retained history begins (0 until the
    first checkpoint truncation). *)

val retained_input_bytes : t -> int
(** Bytes currently held in the retained input history. *)

val snapshot : t -> snapshot
(** Freeze the current connection state.  The caller is responsible for
    quiescing output around the capture (the bridge's per-connection
    hold does this).  In TIME_WAIT the image comes from the record. *)

type frontier = {
  fr_iss : Tcpfo_util.Seq32.t;
  fr_snd_una : Tcpfo_util.Seq32.t;
  fr_rcv_nxt : Tcpfo_util.Seq32.t;
  fr_rcv_fin : Tcpfo_util.Seq32.t option;
  fr_eof_signalled : bool;
  fr_window : int;  (** the receive window we advertise *)
  fr_mss : int;  (** {!effective_mss} *)
}
(** The sequence positions a bridge re-arms its merge state around once
    a hot state transfer completes. *)

val frontier : t -> frontier

(** The TIME_WAIT record (FreeBSD's [tcptw]).  On entering TIME_WAIT a
    connection hands its demux-table slot to this record and drops its
    full TCB.  The record keeps only what TIME_WAIT answers with and
    what a {!snapshot} needs, and never points back at the TCB, so an
    application that no longer holds the handle frees it at once; one
    that does still reads its state through the record.  The stack owns
    the record's 2 MSL timer. *)
module Tw : sig
  type t = tw

  type verdict =
    | Ignore
    | Ack of Tcpfo_packet.Tcp_segment.t  (** send this ACK *)
    | Ack_restart of Tcpfo_packet.Tcp_segment.t
        (** send this ACK and restart 2 MSL (a retransmitted FIN) *)
    | Reset of Tcpfo_packet.Tcp_segment.t option
        (** send the RST if any and drop the record ({!close}).  The
            application is not told: it saw the connection close when
            TIME_WAIT began, and a reset now ends only the wait
            (RFC 1337). *)

  val input : t -> Tcpfo_packet.Tcp_segment.t -> verdict
  (** A segment for the connection, answered as {!segment_arrives}
      answers it in TIME_WAIT.  Segment text is ignored. *)

  val state : t -> state
  (** [Time_wait], or [Closed] once {!close}d. *)

  val close : t -> unit
  (** The record left the demux table. *)

  val input_retention_enabled : t -> bool

  val snapshot :
    t ->
    local:Tcpfo_packet.Ipaddr.t * int ->
    remote:Tcpfo_packet.Ipaddr.t * int ->
    snapshot
  (** The image {!val-snapshot} took of the full TCB, bit for bit. *)

  val frontier : t -> frontier
end

val shift_snapshot : snapshot -> int -> snapshot
(** [shift_snapshot s n] translates the send-side sequence space by [n]
    (receive side untouched) — used to move a snapshot from the
    surviving primary's space into the wire/secondary space (−Δseq)
    before shipping. *)

val restore :
  Tcpfo_sim.Clock.t ->
  instruments:instruments ->
  config:Tcp_config.t ->
  actions ->
  snapshot ->
  t
(** Rebuild a TCB from a snapshot on this host.  Emits nothing; timers
    are re-armed by {!resume_restored}. *)

val resume_restored : t -> unit
(** Fire the application callbacks as history replay (established →
    retained input → EOF if signalled), re-arm retransmission,
    and resume output.  Call after the service's accept handler has
    installed its callbacks on the restored TCB.

    Output the application regenerates from inside the replay callbacks
    is swallowed up to the snapshot point (replayed sends never exert
    backpressure, so a drain-pumped writer regenerates its whole history
    without yielding).  When the replay returns, any unregenerated
    remainder is cancelled — the snapshot's send buffer already carries
    every unacknowledged byte — so an application that cannot regenerate
    its output (e.g. a relay fed by another connection, which must skip
    forwards while {!replaying} is true) resumes cleanly: everything it
    sends after the replay is treated as new data. *)

val replaying : t -> bool
(** True while {!resume_restored} is replaying history into the
    application callbacks.  Output sent back to THIS connection during
    replay is swallowed up to the snapshot point, but an application
    that couples connections (a relay forwarding bytes from one to
    another) must check this and skip the cross-connection forward: the
    replayed input was already forwarded by the original replica, and
    the partner connection's restored stream position accounts for it. *)

(** {1 Statistics} *)

val bytes_acked : t -> int
val bytes_received : t -> int
val retransmits : t -> int
val segments_out : t -> int
