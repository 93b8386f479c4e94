(** One-call construction of a replicated TCP server pool.

    The paper builds a primary/secondary pair; this module generalizes it
    to an N-replica pool with cascading failover.  The first two replicas
    form the *active pair* and run the paper's machinery unchanged: the
    primary and secondary bridges, the bidirectional heartbeat fault
    detectors, and the failover procedures of §5/§6.  Every further
    replica is an ordered *standby*: cold (it holds no connection state),
    but liveness-watched.  When a member of the active pair dies, the
    survivor completes the paper's takeover/degradation and the next
    standby is promoted into the vacated slot through the statex
    hot-state-transfer path, so live connections keep a full replica pair
    behind them.  Repaired hosts {!rejoin} at the back of the pool.

    The replicated application is started through {!listen} (TCP-server
    role) or {!connect_backend} (TCP-client role, §7.2) so that the
    active replicas run identical, deterministic code — the paper's
    active-replication model.

    The service address is the first replica's: clients connect to it
    before and after any number of failovers. *)

type t

type event =
  | Secondary_failure_detected
      (** primary's detector fired; §6 recovery ran *)
  | Primary_failure_detected  (** secondary's detector fired *)
  | Takeover_complete
      (** §5 steps 1–5 finished: the secondary owns the service address *)
  | Reintegrated
      (** a fresh replica joined the active pair after a failure (either
          role) — by promotion from the pool or by {!rejoin} into a
          degraded pair *)
  | Transfers_complete of int
      (** hot state transfer finished; the payload is the number of live
          connections successfully re-replicated onto the fresh host *)
  | Promoted of string
      (** the named standby left the pool for the active pair (cascading
          failover); followed by [Reintegrated]/[Transfers_complete].
          Also published on the event bus, while it has subscribers, as
          {!Tcpfo_obs.Event.Promoted} *)
  | Standby_lost of string
      (** a standby's liveness watcher declared it dead; it was dropped
          from the pool *)
  | Rejoined of string
      (** a repaired host joined the back of the pool (or, if the pool
          was degraded, paired directly with the survivor) *)
  | Isolated of {
      local_port : int;
      remote : Tcpfo_packet.Ipaddr.t * int;
      state : Tcpfo_tcp.Tcb.state;
    }
      (** a live connection could not be re-replicated during
          reintegration — untransferable state or a failed/rejected
          transfer — and was demoted to solo on the survivor, where its
          TCB was in [state]; also bumps the [statex.isolated_conns]
          counter *)

val event_to_string : event -> string
(** One-line human description, for traces and CLIs. *)

val create :
  primary:Tcpfo_host.Host.t ->
  secondary:Tcpfo_host.Host.t ->
  config:Failover_config.t ->
  unit ->
  t
(** [create ~primary ~secondary] is [create_pool ~replicas:[primary;
    secondary]] — the paper's pair as the N = 2 pool. *)

val create_pool :
  replicas:Tcpfo_host.Host.t list ->
  config:Failover_config.t ->
  unit ->
  t
(** [replicas] ordered by promotion priority: the first is the active
    primary, the second the active secondary, the rest cold standbys.
    All replicas must share the primary's Ethernet segment (the §3.1
    snooping model).  Raises [Invalid_argument] on fewer than two
    replicas, duplicates, or dead hosts. *)

val service_addr : t -> Tcpfo_packet.Ipaddr.t
val registry : t -> Failover_config.registry
val primary_bridge : t -> Primary_bridge.t
val secondary_bridge : t -> Secondary_bridge.t

val set_on_event : t -> (event -> unit) -> unit
(** The application's (single) event callback. *)

val add_on_event : t -> (event -> unit) -> unit
(** Register an additional listener, fired after the {!set_on_event}
    callback in registration order.  Infrastructure that must observe
    the pool without disturbing the application — the dispatcher tier's
    per-shard health model — taps events here. *)

val listen :
  t ->
  port:int ->
  on_accept:(role:[ `Primary | `Secondary ] -> Tcpfo_tcp.Tcb.t -> unit) ->
  unit
(** Start the replicated server application on both replicas.  Registers
    [port] as a failover service port (the paper's socket-option method)
    and listens on both stacks; [on_accept] must install identical,
    deterministic behaviour on both. *)

val connect_backend :
  t ->
  remote:Tcpfo_packet.Ipaddr.t * int ->
  ?local_port:int ->
  setup:(role:[ `Primary | `Secondary ] -> Tcpfo_tcp.Tcb.t -> unit) ->
  unit ->
  unit
(** §7.2: both replicas open a connection to an unreplicated server
    [remote] from the service address.  Both replicas must issue their
    connects in the same order so the (deterministic) ephemeral port
    allocators agree; pass [local_port] to pin the source port
    explicitly.

    Client-role connections are fully transferable: input retention is
    enabled at connect time, and [setup] is recorded against [remote] so
    a later {!reintegrate} can re-run it on the fresh replica when the
    restored connection is installed there. *)

val kill_primary : t -> unit
(** Crash the primary host (fail-stop); the secondary's detector will
    notice and run the takeover. *)

val kill_secondary : t -> unit

val status : t -> [ `Normal | `Primary_failed | `Secondary_failed ]
(** State of the *active pair*; a pool failure that has already cascaded
    (a standby was promoted and transfers settled) reads [`Normal]
    again. *)

val standbys : t -> Tcpfo_host.Host.t list
(** The cold standbys still in the pool, in promotion order. *)

val replicas : t -> Tcpfo_host.Host.t list
(** Active primary, active secondary, then {!standbys}.  A dead active
    member remains listed until its failure is detected and a
    replacement promoted. *)

val rejoin : t -> Tcpfo_host.Host.t -> unit
(** A repaired (or new) host joins the back of the pool as a cold
    standby, liveness-watched from the primary.  If the pool is degraded
    — a failure happened and no standby was left — the host instead
    pairs with the survivor immediately, exactly like {!reintegrate};
    if a §5 takeover is still in flight it queues and the takeover's
    completion promotes it.  Raises [Invalid_argument] for a dead host
    or one already pooled. *)

val reintegrate : t -> secondary:Tcpfo_host.Host.t -> unit
(** Reintegration of a failed server — which the paper explicitly leaves
    out of scope (§1).  Role-agnostic: after a *secondary* failure the
    surviving primary pairs with the fresh host; after a *primary*
    failure the promoted survivor keeps serving under the service
    address and the fresh host becomes the secondary of the promoted
    pair.  Every service registered through {!listen} is started on the
    new host, mutual fault detection is re-armed, and live connections
    are re-replicated by hot state transfer: each transferable
    connection is quiesced, snapshotted into wire sequence space,
    shipped over the in-sim control channel, and — on acceptance —
    resumed as a freshly merged replica pair, so it survives a *second*
    failover byte-exactly.  Connections that cannot be transferred
    (mid-handshake, closing down, or missing retained input) stay solo.

    Status returns to [`Normal] immediately; transfers complete
    asynchronously within a few control-channel round trips
    ({!Transfers_complete}, {!pending_transfers}).  Raises
    [Invalid_argument] in the normal state, or while a §5 takeover is
    still in progress. *)

val pending_transfers : t -> int
(** Hot-state-transfer offers still awaiting a verdict (0 when
    reintegration has settled). *)

val transfer_failures : t -> int
(** Transfers that ended in Reject or retry-budget exhaustion since the
    pair was created.  The streaming control channel retransmits
    through loss, so any nonzero value under a merely lossy (not dead)
    channel is an invariant violation. *)

val transfer_stats : t -> Tcpfo_statex.Transfer.stats
(** Aggregate control-channel counters ([statex.*] scope). *)
