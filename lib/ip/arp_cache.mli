(** ARP cache: IPv4 → MAC bindings with expiry.

    The paper's failover window *T* (§5) is precisely the time between the
    primary's death and the moment the router's ARP cache learns the
    secondary's binding from the gratuitous ARP; modelling the cache
    explicitly lets experiments observe and sweep that window. *)

type t

val create :
  Tcpfo_sim.Clock.t -> ttl:Tcpfo_sim.Time.t -> ?obs:Tcpfo_obs.Obs.t ->
  unit -> t
(** Entries expire [ttl] after they were last learned.  Counters
    [arp.hits], [arp.misses] and [arp.learned] are registered under
    [obs]. *)

val lookup : t -> Tcpfo_packet.Ipaddr.t -> Tcpfo_packet.Macaddr.t option
(** [None] for missing or expired entries. *)

val learn : t -> Tcpfo_packet.Ipaddr.t -> Tcpfo_packet.Macaddr.t -> unit

val clear : t -> unit

val entries : t -> (Tcpfo_packet.Ipaddr.t * Tcpfo_packet.Macaddr.t) list
(** Live entries, for diagnostics. *)
