(** Hot state transfer onto a fresh replica, shared by {!Replicated}
    pools and {!Chain}s.

    A ['h t] holds the replicated application's hooks — listener
    callbacks per service port and §7.2 setups per backend endpoint, of
    the caller's hook type ['h] — so a restored connection can be handed
    back to the application, plus the bookkeeping of the latest
    {!start}.

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

val add_service : 'h t -> port:int -> 'h -> unit
(** Record the listener hook of a service port. *)

val add_backend : 'h t -> remote:Tcpfo_packet.Ipaddr.t * int -> 'h -> unit
(** Record the §7.2 setup hook of a backend endpoint. *)

val services : 'h t -> (int * 'h) list
(** Registered service ports with their hooks, newest first. *)

val window : int
(** Offers in flight at once (32). *)

val installer :
  'h t ->
  Tcpfo_host.Host.t ->
  reattach:('h -> Tcpfo_tcp.Tcb.t -> unit) ->
  src:Tcpfo_packet.Ipaddr.t ->
  Tcpfo_statex.Snapshot.conn ->
  (unit, string) result
(** The {!Tcpfo_statex.Transfer.set_installer} callback for [host]:
    adopt the restored TCB, hand it to [reattach] with the listener hook
    (server role) or the backend setup (client role) it belongs to, and
    resume.  The retained-input replay then rebuilds the application's
    per-connection state. *)

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
