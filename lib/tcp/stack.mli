(** TCP stack instance for one host: connection demultiplexing, listeners,
    active opens, RST generation for unmatched segments.

    The [extra-local] predicate is the single concession to the failover
    system: the secondary server's bridge registers the primary's address
    as acceptable so that connections snooped in promiscuous mode are keyed
    under the service address they will keep after IP takeover (paper §5 —
    this is what makes "disable the translation and take over the IP
    address" sufficient for the TCP layer to continue undisturbed). *)

type t

val create :
  Tcpfo_sim.Clock.t ->
  ip:Tcpfo_ip.Ip_layer.t ->
  config:Tcp_config.t ->
  rng:Tcpfo_util.Rng.t ->
  t
(** Installs itself as the IP layer's TCP protocol handler.  Derives its
    observability scope from the IP layer's ([<host>.tcp]): counter
    [tcp.rst_sent], gauge [tcp.connections], counters [tcp.demux_hits] /
    [tcp.demux_misses] (segments that matched / failed to match an
    established connection), and — via the connections it creates —
    [tcp.retransmits], [tcp.rto_backoffs] and the [tcp.rtt_us]
    histogram. *)

val config : t -> Tcp_config.t
val ip : t -> Tcpfo_ip.Ip_layer.t

val listen :
  t -> port:int -> on_accept:(Tcb.t -> unit) -> unit
(** Accept connections to [port] on any local (or extra-local) address.
    [on_accept] fires as soon as the connection is created (SYN received);
    use {!Tcb.set_on_established} for handshake completion. *)

val unlisten : t -> port:int -> unit

val connect :
  t ->
  ?local:Tcpfo_packet.Ipaddr.t ->
  ?local_port:int ->
  remote:Tcpfo_packet.Ipaddr.t * int ->
  unit ->
  Tcb.t
(** Active open.  [local] defaults to the first address of the IP layer;
    [local_port] to a fresh ephemeral port. *)

val set_extra_local : t -> (Tcpfo_packet.Ipaddr.t -> bool) -> unit
(** Extend the set of addresses considered local for listening sockets and
    as permissible [~local] in {!connect}. *)

val connection_count : t -> int
(** Entries in the demux table, TIME_WAIT records included. *)

val find :
  t ->
  local:Tcpfo_packet.Ipaddr.t * int ->
  remote:Tcpfo_packet.Ipaddr.t * int ->
  Tcb.t option
(** The connection's TCB; [None] for a connection in TIME_WAIT, which
    is a {!Tcb.Tw} record (see {!mem}). *)

val mem :
  t ->
  local:Tcpfo_packet.Ipaddr.t * int ->
  remote:Tcpfo_packet.Ipaddr.t * int ->
  bool
(** The stack holds the connection, in TIME_WAIT or not: a segment for
    it is answered, not reset. *)

val fresh_port : t -> int
(** Allocate an ephemeral port. *)

val adopt :
  t ->
  local:Tcpfo_packet.Ipaddr.t * int ->
  remote:Tcpfo_packet.Ipaddr.t * int ->
  make:(Tcb.actions -> Tcb.t) ->
  (Tcb.t, string) result
(** Register a connection built outside the ordinary open paths — a
    restored TCB arriving via hot state transfer.  [make] receives the
    demux-table actions (emit / on_delete) exactly as {!connect} and
    listeners wire them.  Errors (without calling [make]) if the 4-tuple
    is already present. *)

val connections : t -> Tcb.t list
(** The connections with a TCB, in a deterministic order (sorted by
    4-tuple), so iteration is reproducible across runs and [--jobs]
    settings.  Connections in TIME_WAIT are {!Tcb.Tw} records and are
    left out; {!entries} lists them too. *)

type conn = Live of Tcb.t | Time_wait of Tcb.tw

type listed = {
  local : Tcpfo_packet.Ipaddr.t * int;
  remote : Tcpfo_packet.Ipaddr.t * int;
  conn : conn;
}

val entries : t -> listed list
(** Every connection the stack holds, TIME_WAIT records included, in the
    order of {!connections}. *)

val clock : t -> Tcpfo_sim.Clock.t

val tcb_instruments : t -> Tcb.instruments
(** [Tcb.instruments] of the stack's scope, resolved once on first use:
    every TCB the stack creates reports through this one bundle, and
    so should any TCB restored onto it ({!adopt} with [Tcb.restore]). *)

(** The packed demux key, exposed for its regression tests.

    Segments demux through a single 62-bit immediate int —
    [lid:15|lport:16|rid:15|rport:16] with addresses interned to
    per-stack 15-bit ids — hashed by a dedicated integer mix, so the
    per-segment lookup allocates nothing and never enters caml
    structural hashing.  The key is also the only copy of a TIME_WAIT
    record's endpoints ({!entries} unpacks it), so [pack]/[unpack] must
    be exact inverses at every field edge; the edges include intern id
    0x7FFF, which the public path reaches only after 32768 distinct
    peers, so the tests call the packing directly. *)
module For_testing : sig
  val pack : lid:int -> lport:int -> rid:int -> rport:int -> int
  val unpack : int -> int * int * int * int
  (** Inverse of {!pack}: [(lid, lport, rid, rport)]. *)

  val hash : int -> int
end
