(** Which TCP connections are failover connections, plus system tunables.

    The paper implements two selection methods (§7): a per-socket option
    and a per-port configuration.  Both are supported: {!field-service_ports}
    is the port method (the same set must be configured on the primary and
    the secondary); {!register_endpoint} / {!register_remote} implement the
    socket-option method for individual endpoints. *)

type t = {
  service_ports : int list;
      (** local ports of the replicated service (e.g. 21 and 20 for FTP);
          connections from or to these local ports fail over *)
  heartbeat_period : Tcpfo_sim.Time.t;
  detector_timeout : Tcpfo_sim.Time.t;
      (** peer declared dead after this much heartbeat silence *)
  bridge_cost : Tcpfo_sim.Time.t;
      (** per-segment processing cost of the bridge sublayer *)
  takeover_processing : Tcpfo_sim.Time.t;
      (** time the secondary needs to reconfigure its bridge and perform
          the IP takeover (paper §5 steps 1–5) *)
  use_min_ack : bool;
      (** §3.2 joint-acknowledgment rule.  Disabling it (ablation) lets the
          primary acknowledge data the secondary has not received, which
          violates failover requirement 2 of §2 under loss. *)
  use_min_window : bool;
      (** §3.2 joint-window rule; disabling it (ablation) lets the client
          overrun the slower replica. *)
}

val default : t
(** No ports preconfigured; 10 ms heartbeats, 30 ms detector timeout,
    8 µs bridge cost, 200 µs takeover processing. *)

val make :
  ?service_ports:int list ->
  ?heartbeat_period:Tcpfo_sim.Time.t ->
  ?detector_timeout:Tcpfo_sim.Time.t ->
  ?bridge_cost:Tcpfo_sim.Time.t ->
  ?takeover_processing:Tcpfo_sim.Time.t ->
  ?use_min_ack:bool ->
  ?use_min_window:bool ->
  unit ->
  t

(** {1 Per-socket selection (method 1)} *)

type registry

val create_registry : t -> registry
val config : registry -> t

val register_endpoint : registry -> local_port:int -> unit
(** Mark one additional local port as a failover service — the programmatic
    analogue of setting the socket option on a listening socket. *)

val register_remote : registry -> remote_port:int -> unit
(** Mark a remote port as a failover back end: a §7.2 connection has an
    ephemeral local port, so only its remote port marks it
    ([Replicated.connect_backend] registers it). *)

val is_failover_local_port : registry -> int -> bool
val is_failover_remote_port : registry -> int -> bool

val is_failover_conn : registry -> local_port:int -> remote_port:int -> bool
(** A connection is a failover connection if its local port is a (static or
    registered) service port, or its remote port is a registered remote
    port. *)
