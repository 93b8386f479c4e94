(** Hot state transfer onto a fresh replica, run by {!Chain} for chains
    and, through their active pair's chain, for {!Replicated} pools.

    A [t] holds the replicated application's hooks — listener callbacks
    per service port and §7.2 setups per backend endpoint, each called
    with the index of the replica it runs on — so a restored connection
    can be handed back to the application, plus the bookkeeping of the
    latest {!start}.  It also runs the service lifecycle on each replica
    host: the transfer endpoint, listening and §7.2 connecting with input
    retention, and starting every service on a fresh host.

    There is one offer scheduler.  At most {!window} connections are
    mid-transfer at once, and successive pace ticks are spaced by the
    channel's {!Tcpfo_statex.Transfer.suggested_pace}, so re-replicating
    thousands of connections trickles out at the channel's rate instead
    of landing in one simulation instant.  A tick fills one datagram: it
    offers queued connections while each one's first installment still
    fits in it ({!Tcpfo_statex.Transfer.fits}).  Each offer quiesces the
    connection, then reads Δseq, then snapshots the TCB, so a client
    byte arriving while offers are queued is captured exactly once.

    Registers under the world-absolute [statex.*] scope:
    [reintegration_us] (start to the last verdict, sim time),
    [isolated_conns], [transfer_queue_depth], [paced_offers] and
    [pace_wait_us].  While the event bus has subscribers, each {!start}
    publishes a [Hot_transfer] event when it starts and when it
    settles. *)

type t

type hook = replica:int -> Tcpfo_tcp.Tcb.t -> unit
(** An application hook: a listener callback or a §7.2 setup. *)

val create :
  Tcpfo_obs.Obs.t ->
  service_addr:Tcpfo_packet.Ipaddr.t ->
  registry:Failover_config.registry ->
  t

val window : int
(** Offers in flight at once (32). *)

type replica = Tcpfo_host.Host.t * int
(** A replica host with the index its hooks are called with. *)

val attach : t -> replica -> Tcpfo_statex.Transfer.t
(** The replica's control-channel endpoint.  A snapshot landing there is
    adopted as a restored TCB and handed to the listener hook (server
    role) or the backend setup (client role) it belongs to, then
    resumed; the retained-input replay rebuilds the application's
    per-connection state. *)

val listen : t -> port:int -> hook -> replica list -> unit
(** Register a failover service port and its listener hook, then listen
    on every given replica, in order, with input retention enabled on
    each accepted connection so it can later travel by {!start}. *)

val connect_backend :
  t ->
  remote:Tcpfo_packet.Ipaddr.t * int ->
  ?local_port:int ->
  hook ->
  replica list ->
  unit
(** §7.2: register the backend endpoint ([local_port] if given, else the
    remote port) and its setup hook, then open the connection from the
    service address on every given replica, in order, with input
    retention enabled. *)

val start_services : t -> replica -> unit
(** Listen on a fresh replica for every registered service port. *)

val start :
  t ->
  survivor:Tcpfo_host.Host.t ->
  bridge:Primary_bridge.t ->
  xfer:Tcpfo_statex.Transfer.t ->
  dst:Tcpfo_packet.Ipaddr.t ->
  live:(unit -> bool) ->
  on_isolated:
    (local_port:int ->
    remote:Tcpfo_packet.Ipaddr.t * int ->
    state:Tcpfo_tcp.Tcb.state ->
    unit) ->
  on_complete:(int -> unit) ->
  unit
(** Ship every live service connection of [survivor] through [xfer] to
    [dst]; the survivor's merging [bridge] resumes each accepted one as
    a replicated pair.  Whatever cannot travel — untransferable state,
    no retained input, a rejected or timed-out offer, or any offer
    still queued or in flight once [live ()] turns false — is pinned
    solo and reported through [on_isolated], with the TCB state it was
    pinned in.  [on_complete] fires once,
    with the number of connections re-replicated, when the last offer
    has settled (immediately if there was nothing to ship). *)

val pending : t -> int
(** Offers of the latest {!start} still awaiting a verdict. *)

val failures : t -> int
(** Offers that ended in Reject or retry-budget exhaustion. *)
