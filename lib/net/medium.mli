(** Shared half-duplex Ethernet segment (hub semantics) with CSMA/CD.

    Every frame crosses the whole segment, which is what lets the
    secondary server's promiscuous NIC snoop the client↔primary traffic
    (paper §3.1).  The medium also holds each station's receive filter
    (its MAC, promiscuity, [host a] address, own addresses and partition
    state) in a station table, and hands a frame only to the ports that
    take it, in attach order: taps take every frame, a station takes
    frames for its MAC and broadcasts, and a promiscuous station takes
    what its filter passes (DESIGN.md 7.1).  The medium serializes
    transmissions at the configured bandwidth; stations that contend for
    the wire when it becomes idle collide and perform truncated binary
    exponential backoff, producing the collision-induced throughput
    non-linearity the paper observes in Figure 4. *)

type t
type port

type config = {
  bandwidth_bps : int;   (** e.g. 100_000_000 for 100 Mb/s *)
  propagation : Tcpfo_sim.Time.t; (** one-way propagation delay *)
  loss_prob : float;     (** random frame corruption probability *)
  enable_collisions : bool;
  collision_prob : float;
      (** probability that stations contending for the idle wire actually
          start within the same slot and collide (saturated two-station
          Ethernet resolves most contentions by carrier sense) *)
}

val default_config : config
(** 100 Mb/s, 1 µs propagation, no random loss, collisions enabled with
    0.3 contention-collision probability. *)

val create :
  Tcpfo_sim.Engine.t ->
  rng:Tcpfo_util.Rng.t ->
  ?obs:Tcpfo_obs.Obs.t ->
  config ->
  t
(** Counters [medium.collisions], [medium.frames], [medium.bytes],
    [medium.fault_dropped] and [medium.corrupted] are registered under
    [obs] (scoped one level deeper with ["medium"]). *)

val attach : t -> deliver:(Tcpfo_packet.Eth_frame.t -> unit) -> port
(** Register a tap.  [deliver] is invoked for every frame put on the
    wire by any other port (a capture, or a test's raw port). *)

val attach_station :
  t ->
  mac:Tcpfo_packet.Macaddr.t ->
  deliver:(Tcpfo_packet.Eth_frame.t -> addressed_to_me:bool -> unit) ->
  port
(** Register a NIC.  [deliver] is invoked for the frames the station
    takes: those for [mac], broadcasts ([addressed_to_me] true), and
    while promiscuous those its filter passes ([addressed_to_me] false).
    Nothing is delivered while the station is partitioned. *)

val set_promiscuous : t -> port -> ?host:Tcpfo_packet.Ipaddr.t -> bool -> unit
(** [set_promiscuous t p true] makes station [p] take every frame.
    With [~host:a] its filter is tcpdump's [host a]: it takes every ARP
    frame, and an IPv4 datagram only when its source or destination is
    [a] or its destination is one of the station's own addresses
    ({!add_address}).  [false] turns promiscuous mode off. *)

val add_address : t -> port -> Tcpfo_packet.Ipaddr.t -> unit
(** Record one of the station's own IPv4 addresses (an alias too), for
    its [host] filter. *)

val set_partitioned : port -> bool -> unit
(** While partitioned the station takes no frame. *)

val detach : t -> port -> unit
(** Remove a port; queued transmissions from it are discarded.  Used for
    crash-fault injection. *)

val transmit : t -> port -> Tcpfo_packet.Eth_frame.t -> unit
(** Queue a frame for transmission from the given port. *)

val set_fault_hook :
  t -> (Tcpfo_packet.Eth_frame.t -> Fault_hook.verdict) option -> unit
(** Install (or clear) a deterministic fault-injection hook, consulted for
    every frame at the moment it is committed to the wire — after the
    configured random [loss_prob] has drawn from the medium's rng, so a
    pass-through hook leaves the rng stream untouched.  [Drop] and
    [Corrupt] verdicts suppress delivery (the frame still occupies the
    wire for its serialization time) and bump the [medium.fault_dropped] /
    [medium.corrupted] counters respectively. *)

