(** Per-host endpoint of the hot-state-transfer control channel (raw IP
    protocol 254).

    One [t] per host serves both roles: it ships snapshots out
    ({!offer}) and installs snapshots in (via the orchestrator-supplied
    installer).

    Snapshots stream as MSS-bounded installments ([Chunk]) under a
    sliding window; the receiver assembles them incrementally and
    answers each with a cumulative [Ack] carrying the lowest seq it
    still needs, except the installment that completes the snapshot,
    which the verdict ([Accept]/[Reject]) answers alone: the verdict is
    the final acknowledgement.  The sender retransmits only that gap, on an RTO from
    {!Tcpfo_tcp.Rto} with exponential backoff, and aborts only after
    a bounded number of consecutive silent timeouts — so loss delays a
    transfer instead of stranding the connection, while a dead peer
    still fails cleanly.  Receiver-side reassembly state survives the
    gaps, so an interrupted transfer resumes where it stopped, and a
    finished transfer keeps its verdict so retransmitted installments
    re-elicit a lost Accept/Reject idempotently.

    The messages an endpoint emits while handling one datagram, one of
    its timers or one {!batch} leave together, packed greedily into as
    few datagrams as {!max_datagram_bytes} allows: one message travels
    alone in its envelope, two or more as a bundle.  Each offer keeps
    its own transfer id, RTO, retransmissions and verdict, so a lost
    bundle is recovered by every offer in it independently.

    Registers counters under the world-absolute [statex.*] scope:
    [offers_sent], [offers_received], [accepts], [rejects], [timeouts],
    [transfer_bytes] (encoded payload bytes of accepted transfers),
    [chunks_sent], [chunks_received], [chunk_retransmits],
    [duplicate_chunks] and [datagrams_sent].  A datagram, bundle or
    not, that fails to unseal or parse is counted once in the receiving
    host's [ip.malformed.statex]. *)

type t

val proto : int
(** Raw IP protocol number used by the channel (254). *)

val max_datagram_bytes : int
(** Hard bound on every transfer datagram (sealed envelope included):
    1460 bytes, mirroring the data path's MSS
    ({!Tcpfo_tcp.Tcp_config.default}[.mss]).  Enforced by construction
    on send and asserted per datagram. *)

val chunk_overhead : int
(** Fixed per-chunk cost in bytes: sealed envelope + chunk header.
    [max_datagram_bytes - chunk_overhead] snapshot bytes ride in each
    full installment. *)

(** Wire messages of the streaming protocol.  Every datagram is sealed
    in the versioned envelope, so corruption is indistinguishable from
    loss and the retransmission machinery covers both. *)
type msg =
  | Chunk of { xfer_id : int; seq : int; total : int; data : string }
      (** One installment; [total] rides in every chunk so there is no
          separate offer round-trip to lose. *)
  | Ack of { xfer_id : int; next : int }
      (** Cumulative: [next] is the lowest seq still missing. *)
  | Accept of { xfer_id : int }
  | Reject of { xfer_id : int; reason : string }

val encode : msg list -> string
(** One datagram's bytes, as the endpoint itself sends them: a lone
    message sealed on its own, two or more as a sealed bundle.  Exported
    so tests can put on the wire what a correct sender never does:
    duplicates, reorderings, stale transfer ids, bundles of their
    choosing.
    @raise Invalid_argument on the empty list. *)

val attach : Tcpfo_host.Host.t -> t
(** Registers the host's one proto-{!proto} handler
    ({!Tcpfo_ip.Ip_layer.register}); a second [attach] on the same host
    raises [Invalid_argument]. *)

val set_installer :
  t ->
  (src:Tcpfo_packet.Ipaddr.t ->
  Snapshot.conn ->
  (unit, string) result) ->
  unit
(** Called for every fully reassembled, verified incoming snapshot;
    [Ok] answers Accept, [Error] answers Reject with the reason.
    Corrupt payloads are rejected before the installer is consulted. *)

val offer :
  t ->
  dst:Tcpfo_packet.Ipaddr.t ->
  Snapshot.conn ->
  on_result:((unit, string) result -> unit) ->
  unit
(** Encode, stream, and await the peer's verdict.  Each datagram is at
    most {!max_datagram_bytes}, and at most 8 unacknowledged
    installments are in flight.  [on_result] fires exactly once: [Ok] on
    Accept, [Error] on Reject or once 12 consecutive RTOs pass without
    any acknowledgement progress — progress resets the budget, so a slow
    lossy channel is distinguished from a dead one. *)

val batch : t -> (unit -> unit) -> unit
(** [batch t f] runs [f] and sends what it emitted in as few datagrams
    as possible, when the outermost batch ends.  The handler and the
    timers of [t] batch themselves; the reintegration scheduler batches
    the offers of one pace tick. *)

val fits : t -> dst:Tcpfo_packet.Ipaddr.t -> Snapshot.conn -> bool
(** Whether an offer of this snapshot made now would put its first
    installment into the datagram being filled for [dst], without
    starting another; true when none is being filled.  Sizes the
    snapshot by encoding it. *)

val pending_count : t -> int
(** Offers awaiting a verdict. *)

val suggested_pace : t -> Tcpfo_sim.Time.t
(** Inter-offer spacing at which a steady stream of small snapshots
    keeps one chunk window in flight per RTT — what the reintegration
    scheduler uses when pacing is requested without an explicit period.
    Derived from the most recent clean (never-retransmitted) chunk
    round-trip on this channel and the chunk window; a LAN-scale
    constant before the first RTT sample. *)

type stats = {
  offers_sent : int;
  offers_received : int;
  accepts : int;
  rejects : int;
  timeouts : int;
  transfer_bytes : int;
  chunks_sent : int;
  chunks_received : int;
  chunk_retransmits : int;
  duplicate_chunks : int;
  datagrams_sent : int;
}

val stats : t -> stats
(** Current values of the [statex.*] counters.  The scope is
    world-absolute, so both endpoints of a pair report the same
    aggregate numbers. *)
