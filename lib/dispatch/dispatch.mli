(** Dispatcher fleet tier: one sharded service address in front of many
    replicated pools.

    The paper makes a single primary/secondary pair transparent to its
    clients; this module scales that transparency to a *fleet*.  A
    dispatcher is a two-homed host: its front interface owns the
    client-visible service address, its back interface sits on the
    shards' segment as their default gateway with IP forwarding on.  It
    is a NAT, not a proxy — an rx hook rewrites only the IP addresses of
    forwarded datagrams:

    - a client datagram addressed to the service address has its
      destination rewritten to the pinned shard's own (pool) service
      address and is forwarded onto the back wire;
    - a shard reply has its source rewritten back to the fleet service
      address and is forwarded to the client.

    TCP sequence numbers and payloads are untouched, so the paper's §2
    byte-exactness guarantee — and everything the pools do during a
    failover — survives the dispatcher unchanged.

    Routing: a new connection (a SYN) is pinned to a shard by a
    deterministic hash of (client address, client port) weighted by
    per-shard health; the flow table pins every later segment of that
    flow, in both directions, to the same shard — established
    connections never move, exactly like the packed demux keys that pin
    flows inside a stack.  Replies are only translated when they come
    from the pinned shard, so one shard cannot speak into another
    shard's flows.

    Health: each shard carries an integer weight in
    [0, {!config.max_weight}].  Pool failure events start a stepwise
    decay (new connections drain to sibling shards *gradually*, not in
    one step); a completed reintegration starts a stepwise ramp back.
    Independently, the dispatcher probes every shard's pool service
    address (raw IP protocol {!probe_proto}) from its back address; a
    probe silence longer than [probe_timeout] forces the weight to 0
    until replies resume.  Weight changes are counted, exported as
    gauges, and emitted as [Weight_shift] trace events. *)

type config = {
  max_weight : int;  (** healthy weight of every shard *)
  decay_step : int;  (** weight removed per decay tick *)
  decay_period : Tcpfo_sim.Time.t;
  ramp_step : int;  (** weight restored per ramp tick *)
  ramp_period : Tcpfo_sim.Time.t;
  probe_period : Tcpfo_sim.Time.t;
  probe_timeout : Tcpfo_sim.Time.t;
      (** probe silence after which the shard weighs 0 *)
}

val default_config : config
(** The tuning every dispatcher runs with: max_weight 16, decay
    4/2ms, ramp 2/4ms, probes every 10ms with a 35ms timeout (just
    beyond the default failure-detector timeout, so an in-flight §5
    takeover does not trip it). *)

val probe_proto : int
(** Raw IP protocol number of the health probes (252); the hot state
    transfer channel uses 254 and heartbeats 253. *)

type shard_state =
  | Healthy  (** full weight *)
  | Degrading  (** pool reported a failure; weight stepping down *)
  | Down  (** probes unanswered; weight 0 *)
  | Ramping
      (** weight stepping back up — to full weight once the pool is
          whole again ([`Normal] with no pending transfers), or resting
          at a quarter-weight floor while the survivor serves solo *)

type t

val create :
  host:Tcpfo_host.Host.t ->
  service:Tcpfo_packet.Ipaddr.t ->
  back:Tcpfo_packet.Ipaddr.t ->
  shards:(string * Tcpfo_core.Replicated.t) list ->
  unit ->
  t
(** [host] must already own [service] (front) and [back] (back) — build
    it with a [Topo] [dispatch] declaration or [World.attach_extra_lan].
    Forwarding is switched on, the NAT rx hook is installed (chaining to
    whatever rx hook was there), the host's one proto-{!probe_proto}
    registration takes the probe replies, every
    pool's events are tapped via [Replicated.add_on_event], and the
    probe loop starts.  Shard order is the registration order used by
    the weighted router.  Raises [Invalid_argument] on an empty shard
    list or if [host] owns neither address. *)

val arm_probe_responder : Tcpfo_host.Host.t -> unit
(** Install the probe responder on a pool replica: probes for any
    address the host currently owns are answered *from that address*, so
    whoever holds the pool service address — the primary, or the
    secondary after a §5 takeover — answers for the shard.  This is the
    host's one proto-{!probe_proto} registration
    ({!Tcpfo_ip.Ip_layer.register}); garbage probes count in
    [ip.malformed.probe].  Call it once on every replica, including
    repaired hosts before they rejoin. *)

val service : t -> Tcpfo_packet.Ipaddr.t
val shards : t -> (string * Tcpfo_core.Replicated.t) list

val weight : t -> string -> int
(** Current weight of the named shard.  Raises on unknown names. *)

val state : t -> string -> shard_state

val pinned_shard : t -> client:Tcpfo_packet.Ipaddr.t * int -> string option
(** Which shard the flow from this (client address, client port) is
    pinned to, if the dispatcher has seen its SYN. *)

type counters = {
  routed : int;  (** new flows pinned to a shard *)
  drained : int;
      (** of [routed], flows sent elsewhere than their full-weight
          choice — the measurable effect of gradual shifting *)
  refused : int;  (** SYNs dropped because every shard weighed 0 *)
  unmatched : int;  (** non-SYN segments with no flow entry (dropped) *)
  isolation_drops : int;
      (** replies from a shard into another shard's flow (dropped) *)
  probes_sent : int;
  probe_replies : int;
  shift_transitions : int;  (** shard state-machine transitions *)
}

val counters : t -> counters

val of_topo :
  Tcpfo_host.Topo.built ->
  name:string ->
  config:Tcpfo_core.Failover_config.t ->
  unit ->
  t * (string * Tcpfo_core.Replicated.t) list
(** Convenience elaboration of a [Topo] [dispatch] declaration: builds
    one [Replicated] pool per shard group (promotion order is the
    group's member order), arms the probe responder on every replica,
    and wires the dispatcher in front.  Returns the dispatcher and the
    pools in shard order (also available via {!shards}). *)
