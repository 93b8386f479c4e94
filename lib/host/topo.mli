(** Topology as data.

    Every experiment in the repo used to hand-wire its world: make a
    LAN, add hosts one by one, remember to warm ARP, keep the replica
    order in your head.  [Topo] replaces that with a declarative
    description — segments, hosts, links, routers and replica groups as
    plain data — and one elaborator, {!build}, that turns a validated
    {!spec} into live {!World} objects.

    Declarations are an ordered list and are elaborated strictly in
    declaration order.  This is a determinism contract, not a
    convenience: every segment, link and host construction draws from
    the world's root RNG (and the MAC allocator), so a spec whose
    declarations mirror a hand-wired setup produces a byte-identical
    world — same MACs, same per-host RNG streams, same metrics.

    A three-replica pool behind a WAN, in the constructors below:

    {[
      let gw = "10.0.0.254" in
      [ Topo.segment "net";
        Topo.link "wan";
        Topo.router ~seg:"net" ~lan_addr:gw ~link:"wan"
          ~wan_addr:"192.168.0.1" "gw";
        Topo.wan_host ~addr:"192.168.0.2" ~link:"wan" "client";
        Topo.host ~gateway:gw ~addr:"10.0.0.1" ~seg:"net" "primary";
        Topo.host ~gateway:gw ~addr:"10.0.0.2" ~seg:"net" "secondary";
        Topo.host ~gateway:gw ~addr:"10.0.0.4" ~seg:"net" "standby";
        Topo.group ~members:[ "primary"; "secondary"; "standby" ] "pool" ]
    ]} *)

(** {1 Spec} *)

type host = {
  h_name : string;
  h_addr : string;  (** dotted quad *)
  h_segment : string;  (** name of a [Segment] declared earlier *)
  h_gateway : string option;  (** default route via this LAN gateway *)
  h_profile : Host.profile option;
  h_tcp : Tcpfo_tcp.Tcp_config.t option;
}

type router = {
  r_name : string;
  r_segment : string;
  r_lan_addr : string;
  r_link : string;  (** the router takes the link's B side *)
  r_wan_addr : string;
}

type wan_host = {
  w_name : string;
  w_addr : string;
  w_link : string;  (** the WAN host takes the link's A side *)
  w_profile : Host.profile option;
  w_tcp : Tcpfo_tcp.Tcp_config.t option;
}

type service = {
  sv_name : string;
  sv_segment : string;  (** the client-facing (front) segment *)
  sv_addr : string;  (** the fleet's client-visible address *)
}

type dispatch = {
  d_name : string;
  d_service : string;  (** a [Service] declared earlier *)
  d_back : string;  (** dispatcher's own address on the back segment *)
  d_shards : string list;  (** [Group]s declared earlier, one back segment *)
  d_profile : Host.profile option;
      (** default: switch-class per-packet costs (4/6 µs, no jitter) —
          the dispatcher forwards every fleet packet twice, so it must
          be much cheaper per packet than an end host *)
}

type decl =
  | Segment of string * Tcpfo_net.Medium.config option
  | Link of string * Tcpfo_net.Link.config
  | Host of host
  | Router of router
  | Wan_host of wan_host
  | Group of string * string list
      (** replica pool in promotion order: active primary first, active
          secondary second, cold standbys after *)
  | Service of service
      (** a sharded service address: the name clients know the fleet by *)
  | Dispatch of dispatch
      (** a two-homed dispatcher host fronting a fleet of shard pools:
          front interface owns the service address, back interface sits
          on the shards' segment with IP forwarding on *)

type spec = decl list

(** {2 Constructors} — for terse programmatic specs *)

val segment : ?config:Tcpfo_net.Medium.config -> string -> decl
val link : ?config:Tcpfo_net.Link.config -> string -> decl

val host :
  ?gateway:string ->
  ?profile:Host.profile ->
  ?tcp_config:Tcpfo_tcp.Tcp_config.t ->
  addr:string ->
  seg:string ->
  string ->
  decl

val router :
  seg:string -> lan_addr:string -> link:string -> wan_addr:string ->
  string -> decl

val wan_host :
  ?profile:Host.profile ->
  ?tcp_config:Tcpfo_tcp.Tcp_config.t ->
  addr:string ->
  link:string ->
  string ->
  decl

val group : members:string list -> string -> decl
val service : seg:string -> addr:string -> string -> decl

val dispatch :
  ?profile:Host.profile ->
  service:string ->
  back:string ->
  shards:string list ->
  string ->
  decl

(** {1 Validation} *)

val validate : spec -> (unit, string) result
(** Structural checks, before anything is built:
    - duplicate declaration names (hosts, routers and WAN hosts share
      one namespace; segments, links and groups each have their own);
    - references to undeclared (or later-declared) segments and links;
    - duplicate IP addresses on one segment, and duplicate WAN-side
      addresses on one link;
    - dangling link endpoints: each link must be claimed by exactly one
      router (B side) and exactly one WAN host (A side);
    - groups with fewer than two members, unknown members, non-LAN
      members, or members spread across different segments (the §3.1
      snooping model needs the whole pool on one wire);
    - services with unknown segments, and dispatchers with an unknown or
      already-claimed service, unknown/duplicate shard groups, shards
      spread over several back segments, or shards sharing the front
      segment (the dispatcher needs two distinct wires);
    - malformed addresses and gateways.

    Every error message names the offending declaration. *)

(** {1 Elaboration} *)

type built

val build : World.t -> spec -> built
(** Validate, then elaborate in declaration order, drawing world RNG and
    MAC state exactly as the equivalent hand-wired calls would.  After
    all declarations, every segment's ARP caches are warmed
    ({!World.warm_arp} — dead hosts skipped) over its LAN hosts and
    routers.  Raises [Invalid_argument] with {!validate}'s message on an
    invalid spec. *)

val host_of : built -> string -> Host.t
(** Any named host — LAN host, router or WAN host.  This and the other
    accessors raise [Invalid_argument] on an unknown name. *)

val segment_of : built -> string -> Tcpfo_net.Medium.t
val link_of : built -> string -> Tcpfo_net.Link.t

val group_of : built -> string -> Host.t list
(** Members of a replica group, in promotion order — feed it straight to
    [Replicated.create_pool ~replicas]. *)

val hosts : built -> Host.t list
(** Every host in declaration order (LAN hosts, routers, WAN hosts,
    dispatchers). *)

type dispatch_info = {
  di_host : Host.t;
  di_service : Tcpfo_packet.Ipaddr.t;  (** front, client-visible *)
  di_back : Tcpfo_packet.Ipaddr.t;  (** back, the shards' gateway *)
  di_shards : string list;  (** shard group names, registration order *)
}

val dispatch_of : built -> string -> dispatch_info
(** The elaborated dispatcher: a two-homed host with forwarding enabled,
    both interfaces ARP-warmed.  Feed it to [Dispatch.of_topo]. *)

val warm_dispatch_arp : built -> string -> Host.t list -> unit
(** Bind late-added back-segment hosts (e.g. repaired replicas) to the
    named dispatcher: each learns the dispatcher's back address/MAC and
    the dispatcher learns theirs.  Dead hosts are skipped. *)
