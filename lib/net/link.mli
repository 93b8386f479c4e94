(** Full-duplex point-to-point link carrying IP datagrams (PPP-style).

    Models the wide-area path of the paper's FTP experiment (§9, Fig. 6):
    finite bandwidth, propagation delay, optional jitter, random loss, and
    a drop-tail queue.  Each direction is independent. *)

type t
type endpoint

type config = {
  bandwidth_bps : int;
  delay : Tcpfo_sim.Time.t;       (** one-way propagation *)
  jitter : Tcpfo_sim.Time.t;      (** max extra uniform random delay *)
  loss_prob : float;              (** per-packet drop probability *)
  dup_prob : float;               (** per-packet duplication probability *)
  reorder_prob : float;
      (** probability that a packet is held back long enough for later
          packets to overtake it *)
  queue_capacity : int;           (** packets per direction *)
}

val default_config : config
(** 10 Mb/s, 20 ms delay, no jitter, no loss/dup/reorder, 64-packet
    queue. *)

val create :
  Tcpfo_sim.Engine.t ->
  rng:Tcpfo_util.Rng.t ->
  ?obs:Tcpfo_obs.Obs.t ->
  config ->
  t
(** Counters registered under [obs]: [link.dropped] (random in-flight
    loss), [link.queue_full] (drop-tail queue overflow — counted
    separately from loss so congestion is distinguishable in metrics),
    [link.delivered], and [link.fault_dropped] (datagrams discarded by a
    partition, see {!set_blocked}). *)

val endpoint_a : t -> endpoint
val endpoint_b : t -> endpoint

val set_receiver : endpoint -> (Tcpfo_packet.Ipv4_packet.t -> unit) -> unit
(** Handler for datagrams arriving at this end. *)

val send : endpoint -> Tcpfo_packet.Ipv4_packet.t -> unit
(** Transmit toward the opposite end. *)

val set_blocked : endpoint -> bool -> unit
(** Partition this endpoint: while blocked, datagrams it sends vanish
    before queueing and datagrams arriving for it are discarded at
    delivery time (both counted as [link.fault_dropped]).  The opposite
    endpoint is unaffected.  Unblocking does not resurrect anything
    discarded meanwhile. *)
