(** An Ethernet interface: a NIC plus ARP resolution plus a set of local
    IPv4 addresses (aliases), each also entered in the NIC's receive
    filter.

    IP takeover (paper §5, step 5) is [add_address], which installs the
    failed primary's address as an alias and broadcasts a gratuitous ARP so
    that every cache on the segment — client, router — rebinds the address
    to this interface's MAC. *)

type t

val create :
  Tcpfo_sim.Clock.t ->
  ?obs:Tcpfo_obs.Obs.t ->
  ?host:string ->
  nic:Tcpfo_net.Nic.t ->
  addr:Tcpfo_packet.Ipaddr.t ->
  prefix:int ->
  unit ->
  t
(** [obs] is the host-level observability scope: the interface's ARP
    cache registers its counters under it, and {!add_address} publishes
    an [Arp_takeover] event labelled with [host] (default ["host"]). *)

val nic : t -> Tcpfo_net.Nic.t
val addresses : t -> Tcpfo_packet.Ipaddr.t list
val primary_address : t -> Tcpfo_packet.Ipaddr.t
val prefix : t -> int

val add_address : t -> Tcpfo_packet.Ipaddr.t -> unit
(** Install an alias and announce it with a gratuitous ARP. *)

val set_on_addr_change : t -> (unit -> unit) -> unit
(** Notification that the address set changed ({!add_address}).  The IP layer uses it to invalidate its cached
    local-address list. *)

val arp_cache : t -> Arp_cache.t

val set_rx :
  t ->
  (Tcpfo_packet.Ipv4_packet.t -> link_addressed:bool -> unit) ->
  unit
(** Upcall for received IPv4 datagrams.  [link_addressed] is false for
    datagrams seen only via promiscuous mode.  ARP is handled internally
    and never reaches the upcall. *)

val send_ip :
  t -> next_hop:Tcpfo_packet.Ipaddr.t -> Tcpfo_packet.Ipv4_packet.t -> unit
(** Resolve [next_hop] (emitting ARP requests as needed, queueing up to a
    small number of datagrams per pending resolution) and transmit. *)

val set_promiscuous : t -> Tcpfo_packet.Ipaddr.t option -> unit
(** [set_promiscuous t (Some a)] puts the NIC into promiscuous mode to
    snoop the datagrams addressed to [a] (the service address a bridge
    replicates); [None] turns promiscuous mode off.  The NIC's filter,
    held in the medium's station table, is tcpdump's [host a]: a frame
    not addressed to the NIC reaches it only when it is ARP, or an IPv4
    datagram whose source or destination is [a] or whose destination is
    one of the interface's addresses.  Every other frame on the segment
    never reaches the host.  Of those that pass, the IP layer charges
    the receive cost of one addressed to neither [a] nor a local address
    (the service's own outbound traffic) and drops it before any hook
    sees it (DESIGN.md 7.1). *)

val snooped : t -> Tcpfo_packet.Ipaddr.t option
(** The address named by the last {!set_promiscuous}. *)

val shutdown : t -> unit
