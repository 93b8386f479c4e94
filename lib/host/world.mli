(** Canned topologies for experiments and tests.

    Two shapes cover everything in the paper's evaluation:

    - {!make_lan}: one shared 100 Mb/s Ethernet segment carrying the
      client, the primary, the secondary, and (for baselines) an
      unreplicated server — the §9 LAN testbed;
    - {!add_wan_client}: a client behind a router and a bandwidth/latency/
      loss-limited point-to-point link — the §9 FTP-over-WAN testbed. *)

type t

val create : ?seed:int -> unit -> t
(** The engine's structural counters ([engine.cancelled_skips],
    [engine.wheel_cascades]) are mirrored into the registry.  They
    measure the event queue's own work, not the simulation's. *)

val engine : t -> Tcpfo_sim.Engine.t
val rng : t -> Tcpfo_util.Rng.t
(** The root RNG; split it for workloads. *)

val obs : t -> Tcpfo_obs.Obs.t
(** Root observability handle shared by everything the world builds:
    hosts scope themselves under [host.<name>], the LAN medium under
    [medium].  Subscribe to [Tcpfo_obs.Event.Bus] via [Obs.bus] to watch
    structured trace events. *)

val metrics : t -> Tcpfo_obs.Registry.t
(** Shortcut for [Obs.metrics (obs t)] — the registry to snapshot or
    query at the end of a run. *)

val fresh_rng : t -> Tcpfo_util.Rng.t

val make_lan : t -> ?config:Tcpfo_net.Medium.config -> unit -> Tcpfo_net.Medium.t

val add_host :
  t ->
  Tcpfo_net.Medium.t ->
  name:string ->
  addr:string ->
  ?profile:Host.profile ->
  ?tcp_config:Tcpfo_tcp.Tcp_config.t ->
  unit ->
  Host.t
(** LAN host with an auto-assigned MAC and a /24 on the given address.
    Raises [Invalid_argument] if the address (or MAC) is already claimed
    on the same segment: the takeover's gratuitous ARP is the one
    sanctioned way an address moves between hosts, so a statically
    duplicated binding is always a topology bug. *)

val attach_extra_lan :
  t ->
  Host.t ->
  Tcpfo_net.Medium.t ->
  addr:string ->
  Tcpfo_ip.Eth_iface.t
(** Attach a further LAN interface (auto-assigned MAC, /24) to an
    existing host — e.g. the back leg of a two-homed dispatcher.  Same
    duplicate-binding rejection as {!add_host}; the host's first
    interface (and with it {!Host.addr}) is unchanged. *)

val add_router :
  t ->
  Tcpfo_net.Medium.t ->
  lan_addr:string ->
  wan_link:Tcpfo_net.Link.t ->
  wan_addr:string ->
  unit ->
  Host.t
(** Forwarding host with a LAN leg and the B side of [wan_link]. *)

val add_wan_client :
  t ->
  wan_link:Tcpfo_net.Link.t ->
  addr:string ->
  ?profile:Host.profile ->
  ?tcp_config:Tcpfo_tcp.Tcp_config.t ->
  unit ->
  Host.t
(** Client on the A side of [wan_link] with a default route through it. *)

val warm_arp : Host.t list -> unit
(** Insert every host's (address, MAC) binding into every other host's ARP
    cache, as the paper does before timing anything (§9).  Dead hosts are
    skipped on both sides, so warming after a failure can never re-poison
    a taken-over service address with the corpse's binding. *)

val run : t -> for_:Tcpfo_sim.Time.t -> unit
val run_until_idle : t -> unit
val now : t -> Tcpfo_sim.Time.t
