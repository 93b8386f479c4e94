(** The secondary server's bridge sublayer (paper §3.1 and §5).

    In normal operation:
    - the NIC runs in promiscuous mode, and every TCP datagram addressed
      to the primary's (service) address on a failover port is claimed and
      delivered to the local TCP layer — the secondary processes exactly
      the client input the primary does;
    - every reply the local TCP layer addresses to a client of a failover
      connection is diverted to the primary — destination rewritten to the
      service address and the original destination carried in the
      [Orig_dst] TCP header option — where the primary's bridge matches it
      byte-for-byte against the primary's own reply.

    The local TCP stack keys these connections under the *service*
    address (registered via the stack's extra-local predicate), which is
    what makes failover seamless: after IP takeover the very same
    connections continue under the very same 4-tuple.

    On primary failure ({!begin_takeover}, §5 steps 1–5): output toward
    clients is held, promiscuous mode and both translations are switched
    off, the service address is installed as an alias (gratuitous ARP),
    and held output is released — from then on the host behaves as an
    ordinary TCP server. *)

type t

val install :
  Tcpfo_host.Host.t ->
  registry:Failover_config.registry ->
  service_addr:Tcpfo_packet.Ipaddr.t ->
  ?divert_to:Tcpfo_packet.Ipaddr.t ->
  ?only_new_connections:bool ->
  unit ->
  t
(** Installs IP hooks, enables promiscuous mode and registers the service
    address as acceptable-local with the TCP stack.  Replies are diverted
    to [divert_to] (default: the service address, i.e. the primary); in a
    daisy chain the tail diverts to the replica directly above it.

    Observability: the world-absolute scope [bridge.secondary] carries
    counters [claimed] (datagrams snooped and delivered locally),
    [diverted] (replies re-addressed to the primary) and [held_segments],
    plus the gauge [held_bytes] (payload parked during takeover, reset to
    zero on release); [Divert], [Hold] and
    [Failover Takeover_started/Takeover_complete] events are published
    when the bus is active. *)

val retarget : t -> Tcpfo_packet.Ipaddr.t -> bool
(** Change the diversion target — used when the replica above this one in
    a chain fails and the stream must flow to its successor.  [true] if
    the target moved (the chain then kicks this replica's service
    connections, DESIGN.md 7.22). *)

val uninstall : t -> unit

val begin_takeover : t -> on_complete:(unit -> unit) -> unit
(** Execute the §5 failover procedure.  Reconfiguration takes the
    configured [takeover_processing] time, after which held segments are
    released and [on_complete] fires. *)

val taken_over : t -> bool
