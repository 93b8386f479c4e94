(** Hot state transfer onto a fresh replica, shared by {!Replicated}
    pools and {!Chain}s.

    A ['h t] holds the replicated application's hooks — listener
    callbacks per service port and §7.2 setups per backend endpoint, of
    the caller's hook type ['h] — so a restored connection can be handed
    back to the application, plus the bookkeeping of the latest
    {!start}.  It also runs the service lifecycle on each replica host:
    the transfer endpoint, listening and §7.2 connecting with input
    retention, and starting every service on a fresh host.  Pools and
    chains differ only in the hook adapter of a {!replica}.

    There is one offer scheduler.  At most {!window} connections are
    mid-transfer at once, and successive offers are spaced by the
    channel's {!Tcpfo_statex.Transfer.suggested_pace}, so re-replicating
    thousands of connections trickles out at the channel's rate instead
    of landing in one simulation instant.  Each offer quiesces the
    connection, then reads Δseq, then snapshots the TCB, so a client
    byte arriving while offers are queued is captured exactly once.

    Registers under the world-absolute [statex.*] scope:
    [reintegration_us] (start to the last verdict, sim time),
    [isolated_conns], [transfer_queue_depth], [paced_offers] and
    [pace_wait_us]. *)

type 'h t

val create :
  Tcpfo_obs.Obs.t ->
  service_addr:Tcpfo_packet.Ipaddr.t ->
  registry:Failover_config.registry ->
  'h t

val window : int
(** Offers in flight at once (32). *)

type 'h replica = Tcpfo_host.Host.t * ('h -> Tcpfo_tcp.Tcb.t -> unit)
(** A replica host with its hook adapter: how a hook is applied to a
    connection on that host, e.g. [fun hook tcb -> hook ~role:`Primary tcb]
    for a pool or [fun hook tcb -> hook ~replica:i tcb] for a chain. *)

val attach : 'h t -> 'h replica -> Tcpfo_statex.Transfer.t
(** The replica's control-channel endpoint.  A snapshot landing there is
    adopted as a restored TCB and handed, through the adapter, to the
    listener hook (server role) or the backend setup (client role) it
    belongs to, then resumed; the retained-input replay rebuilds the
    application's per-connection state. *)

val listen : 'h t -> port:int -> 'h -> 'h replica list -> unit
(** Register a failover service port and its listener hook, then listen
    on every given replica, in order, with input retention enabled on
    each accepted connection so it can later travel by {!start}. *)

val connect_backend :
  'h t ->
  remote:Tcpfo_packet.Ipaddr.t * int ->
  ?local_port:int ->
  'h ->
  'h replica list ->
  unit
(** §7.2: register the backend endpoint ([local_port] if given, else the
    remote port) and its setup hook, then open the connection from the
    service address on every given replica, in order, with input
    retention enabled. *)

val start_services : 'h t -> 'h replica -> unit
(** Listen on a fresh replica for every registered service port. *)

val start :
  'h t ->
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

val pending : 'h t -> int
(** Offers of the latest {!start} still awaiting a verdict. *)

val failures : 'h t -> int
(** Offers that ended in Reject or retry-budget exhaustion. *)
