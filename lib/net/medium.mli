(** Shared half-duplex Ethernet segment (hub semantics) with CSMA/CD.

    Every attached port sees every frame — which is precisely what lets the
    secondary server's promiscuous NIC snoop the client↔primary traffic
    (paper §3.1).  The medium serializes transmissions at the configured
    bandwidth; stations that contend for the wire when it becomes idle
    collide and perform truncated binary exponential backoff, producing the
    collision-induced throughput non-linearity the paper observes in
    Figure 4. *)

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
(** Register a station.  [deliver] is invoked for every frame put on the
    wire by any other station (filtering by destination MAC is the NIC's
    job). *)

val detach : t -> port -> unit
(** Remove a station; queued transmissions from it are discarded.  Used for
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

