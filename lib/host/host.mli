(** A simulated host: NIC(s) + ARP + IP + TCP, with crash-fault injection.

    [kill] models a fail-stop crash (the paper's fault model): the NIC
    detaches from the wire and every pending timer of the host becomes
    inert, as if power were cut.  Nothing is flushed and no FIN or RST is
    emitted — surviving nodes only notice through missing heartbeats and
    missing acknowledgments. *)

type profile = {
  tx_cost : Tcpfo_sim.Time.t;  (** per-datagram transmit-path CPU cost *)
  rx_cost : Tcpfo_sim.Time.t;  (** per-datagram receive-path CPU cost *)
  jitter_frac : float;
      (** uniform per-packet extra cost in [0, frac·base) — OS noise *)
  hiccup_prob : float;
      (** probability of a rare ~3× scheduling hiccup per packet *)
}

type t

val create :
  Tcpfo_sim.Engine.t ->
  name:string ->
  rng:Tcpfo_util.Rng.t ->
  ?profile:profile ->
  ?tcp_config:Tcpfo_tcp.Tcp_config.t ->
  ?obs:Tcpfo_obs.Obs.t ->
  unit ->
  t
(** [obs] is normally the world's root handle; the host narrows it to
    [host.<name>] and threads it through its NIC, ARP cache, IP layer and
    TCP stack, so a fully-wired host reports e.g.
    [host.server.tcp.retransmits] and [host.server.nic.rx] without
    further plumbing. *)

val attach_lan :
  t ->
  Tcpfo_net.Medium.t ->
  addr:Tcpfo_packet.Ipaddr.t ->
  ?prefix:int ->
  mac:Tcpfo_packet.Macaddr.t ->
  unit ->
  Tcpfo_ip.Eth_iface.t

val attach_ptp :
  t ->
  Tcpfo_net.Link.endpoint ->
  addr:Tcpfo_packet.Ipaddr.t ->
  unit
(** Point-to-point attachment (the WAN side of a router, or a remote
    client).  Adds a connected host route for the peer; use
    {!set_default_via_ptp} to route everything through it. *)

val set_default_via_ptp : t -> unit
(** Default route through the (single) point-to-point interface. *)

val set_default_via_lan : t -> gateway:Tcpfo_packet.Ipaddr.t -> unit

val set_forwarding : t -> bool -> unit

val name : t -> string
val engine : t -> Tcpfo_sim.Engine.t
val clock : t -> Tcpfo_sim.Clock.t
val rng : t -> Tcpfo_util.Rng.t

val obs : t -> Tcpfo_obs.Obs.t
(** The host's [host.<name>] scope.  In-host components (bridges,
    heartbeat) derive their scopes from it; use [Obs.root] for
    world-absolute names. *)

val ip : t -> Tcpfo_ip.Ip_layer.t
val cpu : t -> Tcpfo_sim.Cpu.t
val tcp : t -> Tcpfo_tcp.Stack.t
val eth : t -> Tcpfo_ip.Eth_iface.t
(** The (first) Ethernet interface.  Raises if none is attached. *)

val addr : t -> Tcpfo_packet.Ipaddr.t
(** Primary address of the first interface attached. *)

val alive : t -> bool

type 'a key
(** Names one kind of per-host state kept by a service layered above
    the host. *)

val new_key : unit -> 'a key

val local : t -> 'a key -> init:(unit -> 'a) -> 'a
(** [local h key ~init] is [h]'s state under [key], made by [init] on
    first use.  The state lives and dies with the host, so worlds running
    in parallel domains never share it. *)

val kill : t -> unit
(** Fail-stop crash. *)

val pause : t -> unit
(** Freeze the host without detaching it (SIGSTOP / VM-pause semantics):
    timers that come due and packets that arrive while paused are queued
    instead of processed — the NIC still sees the wire, so nothing is
    physically lost, but the host emits nothing and reacts to nothing.
    Unlike {!kill} this is reversible; surviving peers cannot tell the
    two apart until the host comes back. *)

val resume : t -> unit
(** Thaw a paused host.  All work deferred during the freeze runs
    immediately, in its original firing order, at the resume instant —
    exactly what an OS does with expired timers after SIGCONT.  No-op if
    not paused. *)

val paused : t -> bool

val set_partitioned : t -> bool -> unit
(** Cut (or restore) the host's network without it noticing: every
    attached interface silently discards inbound and outbound traffic
    while partitioned, but timers keep running — the mirror image of
    {!pause}, and likewise reversible. *)

val learn_arp :
  t -> Tcpfo_packet.Ipaddr.t -> Tcpfo_packet.Macaddr.t -> unit
(** Pre-warm the ARP cache (the paper pre-warms all caches before
    measuring, §9). *)
