(** Heartbeat-based fault detection between the two replicas.

    Each replica unicasts a heartbeat datagram (its own IP protocol) to its
    peer every [heartbeat_period]; the detector declares the peer failed
    after [detector_timeout] of silence and fires its callback exactly
    once.  A fail-stop host simply stops emitting heartbeats, which is the
    paper's fault model (§2: "the system employs a fault detector").

    Only heartbeats from the watched peer's address carrying the peer's
    role reset the detector — beats from other replicas sharing the
    segment are ignored.  The detector is deadline-driven: it wakes
    exactly when the beat expected at [last_seen + heartbeat_period]
    becomes [detector_timeout] overdue, so detection latency is bounded
    by [detector_timeout + 2 * heartbeat_period] (plus delivery delays),
    not by an extra polling timeout.

    Beats travel as raw IP protocol {!proto}.  Each host has one
    registration for it, made by its first watcher, and a watcher set
    keyed by peer address: a beat reaches only the watchers of the peer
    it came from, and {!stop} takes a watcher out of the set. *)

val proto : int
(** Raw IP protocol number of heartbeats (253). *)

type beat = { origin : string; seq : int; role : [ `Primary | `Secondary ] }
(** One heartbeat: the sending replica's name, its beat counter (sent
    modulo 2{^32}) and its role. *)

val encode : beat -> string
(** The datagram body: u32 seq, u16 origin length, u8 role (0 primary,
    1 secondary), u8 zero, then the origin — [8 + |origin|] bytes. *)

val decode : string -> beat option
(** Inverse of {!encode}; [None] on a truncated body, a length that
    disagrees with the origin, or a bad role or padding byte.  Such beats
    count in [ip.malformed.heartbeat] and reset no detector. *)

type t

val start :
  Tcpfo_host.Host.t ->
  peer:Tcpfo_packet.Ipaddr.t ->
  role:[ `Primary | `Secondary ] ->
  config:Failover_config.t ->
  on_peer_failure:(unit -> unit) ->
  t
(** Begin sending heartbeats to [peer] and watching for theirs, joining
    the host's watcher set (registering proto {!proto} on the host's
    first watcher).  Counters
    [heartbeat.sent] and [heartbeat.received] register under the host's
    scope; declaring the peer dead publishes a
    [Failover Detected] event. *)

val stop : t -> unit
(** Stop sending and detecting, and leave the host's watcher set (used
    after a completed failover, when the survivor runs as an ordinary
    server).  A watcher that fires leaves the set the same way. *)
