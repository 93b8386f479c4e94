(** Host IP layer: interfaces, routing, local delivery, forwarding — and
    the hook points where the TCP failover bridge interposes itself
    between TCP and IP (the paper's "bridge" sublayer sits exactly here).

    Local delivery: TCP segments go to the {!set_tcp_handler} handler;
    every other protocol is a control channel with a single owner per
    host, looked up by protocol number in a table filled by {!register}
    (heartbeats 253, hot state transfer 254, dispatcher probes 252).

    Hooks:
    - the [tx hook] sees every locally-originated datagram before routing;
      the primary bridge uses it to delay, renumber and merge the TCP
      layer's segments (paper §3.2–3.4), the secondary bridge to divert
      replies to the primary (§3.1).
    - the [rx hook] sees every datagram that arrives on any interface,
      including frames captured only by promiscuous mode; the secondary
      bridge uses it to accept datagrams addressed to the primary (§3.1),
      the primary bridge to intercept the secondary's diverted replies and
      to translate acknowledgment numbers for its own TCP layer (§3.3).

    Packets emitted by a bridge itself go through {!inject}, which skips
    the tx hook. *)

type t

type iface
(** Handle to an attached interface. *)

type tx_verdict =
  | Tx_pass of Tcpfo_packet.Ipv4_packet.t  (** send this (possibly rewritten) datagram *)
  | Tx_drop  (** consumed by the hook *)

type rx_verdict =
  | Rx_pass of Tcpfo_packet.Ipv4_packet.t
      (** continue normal processing (local delivery check, forwarding) *)
  | Rx_deliver of Tcpfo_packet.Ipv4_packet.t
      (** force local delivery even if the destination is not one of our
          addresses — how the secondary accepts traffic sent to the
          primary *)
  | Rx_drop  (** consumed by the hook *)

val create :
  Tcpfo_sim.Clock.t ->
  name:string ->
  ?tx_cost:Tcpfo_sim.Time.t ->
  ?rx_cost:Tcpfo_sim.Time.t ->
  ?jitter:(unit -> Tcpfo_sim.Time.t) ->
  ?cpu:Tcpfo_sim.Cpu.t ->
  ?obs:Tcpfo_obs.Obs.t ->
  unit ->
  t
(** [tx_cost]/[rx_cost] model per-datagram host processing (protocol stack
    traversal, interrupts); they default to zero.  [jitter], when given,
    is sampled per packet and added on top — OS scheduling noise.  All
    processing serializes through [cpu] (one is created if not given), so
    a host's packet throughput is bounded by 1/cost.

    [obs] is the host-level observability scope: counters [ip.tx],
    [ip.rx], [ip.forwarded] and [ip.snoop_busy_ns] (CPU time spent
    receiving promiscuously captured datagrams that nothing keeps) are
    registered one level below it, and —
    when the event bus has subscribers — every TCP segment handed to the
    wire or delivered upward is published as a [Segment_tx]/[Segment_rx]
    event. *)

val cpu : t -> Tcpfo_sim.Cpu.t

val name : t -> string
val clock : t -> Tcpfo_sim.Clock.t

val add_eth_iface : t -> Eth_iface.t -> iface
(** Attaching also installs a connected route for the interface prefix. *)

val add_ptp_iface :
  t -> Tcpfo_net.Link.endpoint -> addr:Tcpfo_packet.Ipaddr.t -> iface

val add_route :
  t -> net:Tcpfo_packet.Ipaddr.t -> prefix:int ->
  ?gateway:Tcpfo_packet.Ipaddr.t -> iface -> unit

val set_default_route : t -> gateway:Tcpfo_packet.Ipaddr.t -> iface -> unit

val addresses : t -> Tcpfo_packet.Ipaddr.t list
val is_local_address : t -> Tcpfo_packet.Ipaddr.t -> bool

val set_forwarding : t -> bool -> unit
(** Router behaviour: non-local datagrams are re-routed instead of
    dropped. *)

val set_tcp_handler :
  t ->
  (src:Tcpfo_packet.Ipaddr.t -> dst:Tcpfo_packet.Ipaddr.t ->
   Tcpfo_packet.Tcp_segment.t -> unit) ->
  unit

val register :
  t ->
  proto:int ->
  name:string ->
  decode:(string -> 'a option) ->
  (src:Tcpfo_packet.Ipaddr.t -> 'a -> unit) ->
  unit
(** [register t ~proto ~name ~decode handler] makes [handler] the one
    owner of raw IP protocol [proto] (0–255) on this host: every
    arriving [Raw { proto; data }] datagram is decoded once, and [handler]
    gets the message together with the sender's address.  A body that
    [decode] rejects ([None]) is counted in the per-host counter
    [ip.malformed.<name>], registered here, and goes no further.
    Datagrams of a protocol nobody registered are dropped uncounted.

    @raise Invalid_argument if [proto] is already registered on this
    host, or out of range. *)

val set_tx_hook : t -> (Tcpfo_packet.Ipv4_packet.t -> tx_verdict) option -> unit

val set_rx_hook :
  t ->
  (Tcpfo_packet.Ipv4_packet.t -> link_addressed:bool -> rx_verdict) option ->
  unit

val tx_hook : t -> (Tcpfo_packet.Ipv4_packet.t -> tx_verdict) option
val rx_hook :
  t ->
  (Tcpfo_packet.Ipv4_packet.t -> link_addressed:bool -> rx_verdict) option
(** Current hooks, so that test instrumentation (targeted drop filters,
    packet taps) can wrap rather than replace a bridge's hooks. *)

val set_wire_roundtrip : t -> bool -> unit
(** Debug/validation mode: every outgoing datagram's IPv4 header is
    encoded to RFC 791 octets and must read back its addresses, protocol
    and total length, and every TCP segment is encoded to RFC 793 octets
    (checksum over the IPv4 pseudo-header included) and parsed back
    before transmission.  Proves that nothing in the system — including
    the bridge's rewritten and merged segments — depends on structure
    sharing, and that every emitted datagram is wire-legal.  Raises
    {!Tcpfo_packet.Wire.Malformed} on any discrepancy.

    Only the test suite turns it on: it costs an encode and a decode per
    datagram and changes no simulated outcome, so no experiment needs
    it, but it is the one check that the simulator's structured packets
    stand for real octets. *)

val send : t -> Tcpfo_packet.Ipv4_packet.t -> unit
(** Normal transmission path: tx hook, then routing. *)

val send_tcp :
  t -> src:Tcpfo_packet.Ipaddr.t -> dst:Tcpfo_packet.Ipaddr.t ->
  Tcpfo_packet.Tcp_segment.t -> unit

val inject : t -> Tcpfo_packet.Ipv4_packet.t -> unit
(** Transmit bypassing the tx hook — used by the bridges for the segments
    they construct themselves. *)

val fresh_ident : t -> int

val obs : t -> Tcpfo_obs.Obs.t
(** The host-level scope the layer was created with — bridges and other
    in-host components derive their own scopes from it. *)
