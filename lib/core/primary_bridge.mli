(** The primary server's bridge sublayer (paper §3.2–§3.4, §4, §6, §7, §8).

    Sits between the primary's TCP layer and IP layer (installed on the
    {!Tcpfo_ip.Ip_layer} hooks) and, for every failover connection:

    - intercepts and holds the local TCP layer's output, shifting its
      sequence numbers into the secondary's sequence space
      (Δseq = seq_P,init − seq_S,init, §3.3);
    - intercepts the secondary's diverted output (recognized by the
      [Orig_dst] TCP option) and matches the two byte streams, emitting to
      the client only bytes both replicas produced (§3.4, Fig. 2);
    - stamps outgoing segments with the minimum of the two replicas'
      acknowledgment numbers and advertised windows (§3.2), so a failover
      never acknowledges data the survivor lacks;
    - recognizes retransmissions (sequence range already emitted) and
      forwards them immediately instead of queueing (§4);
    - constructs empty acknowledgment segments when the joint
      acknowledgment (or, to avoid a zero-window deadlock, the joint
      window) advances with no data to carry it (§3.4);
    - translates acknowledgment numbers of incoming segments into the
      primary's sequence space (+Δseq) before its TCP layer sees them
      (the inverse mapping implied by §3.3);
    - merges SYNs: the SYN sent to the client carries the secondary's
      initial sequence number and the minimum of the two MSS values (§7.1,
      also for server-initiated opens §7.2);
    - tracks FIN positions of both replicas and the client and tears its
      state down only when both directions are fully closed, answering
      stray retransmitted FINs afterwards (§8);
    - on failure of the secondary, flushes the primary output queue to the
      client and from then on runs each connection solo: the same merge
      path on the primary's output alone, still shifted by Δseq, up to
      the same §8 teardown (§6). *)

type t

module Conns : Hashtbl.S with type key = Tcpfo_packet.Ipaddr.t * int * int
(** The bridge's connection table, keyed by (remote address, remote port,
    local port).  Its [hash] is [Hashtbl.hash], so [fold]/[iter] — which
    degrade every connection at failover — visit connections in the order
    a generic [Hashtbl] given the same operations would. *)

type output =
  | Direct
      (** emit merged segments straight to the client — the head of the
          chain (the paper's primary server) *)
  | Divert_to of Tcpfo_packet.Ipaddr.t
      (** divert merged segments to the next replica up the chain, exactly
          like a secondary diverts its raw output — this is what makes
          daisy-chained replication (paper §1) compose: a middle replica
          merges everything below it and presents the merged stream
          upstream as if it were a single secondary *)

val install :
  Tcpfo_host.Host.t ->
  registry:Failover_config.registry ->
  service_addr:Tcpfo_packet.Ipaddr.t ->
  secondary_addr:Tcpfo_packet.Ipaddr.t ->
  ?output:output ->
  ?claim_service:bool ->
  unit ->
  t
(** Install the bridge on the host's IP hooks.  [service_addr] is the
    service address a_p (the address clients connect to).  [output]
    defaults to [Direct].  [claim_service] (default false) makes the
    bridge claim client datagrams addressed to the service address for
    local delivery — required on middle chain nodes, whose NIC sees them
    only promiscuously; the head owns the address and needs no claim.
    A claiming bridge also puts the NIC into promiscuous mode and makes
    the TCP layer treat the service address as local.

    Observability: the world-absolute scope [bridge.primary] carries
    counters [emitted], [retrans_forwarded], [empty_acks], [syn_merges]
    and [merged_bytes], plus the histogram [merge_latency_us] (time the
    earlier replica's bytes waited for their twin before the merged
    segment went out).  [Merge], [Segment_drop] and
    [Failover Degraded/Reintegrated] events are published when the bus
    is active.  Instruments aggregate across every merging bridge of a
    chain (shared names, shared registry). *)

val retarget : t -> Tcpfo_packet.Ipaddr.t -> bool
(** Divert to a new upstream address (a middle chain level whose
    upstream died); [true] if the target moved.  A no-op returning
    [false] on [Direct] output. *)

val promote : t -> on_complete:(unit -> unit) -> unit
(** §5 takeover by a diverting (middle) bridge whose head died: switch
    to [Direct] output at once, leave promiscuous mode, and after
    [takeover_processing] alias the service address with a gratuitous
    ARP, then call [on_complete].  Publishes [Failover Takeover_started]
    and [Failover Takeover_complete], as the secondary's takeover does.
    Unlike the secondary it holds nothing: its merged output is already
    in the wire sequence space. *)

val secondary_failed : t -> unit
(** §6 recovery: pin every connection solo and flush what the primary
    alone has queued; a solo connection's output keeps going through the
    merge path with the primary's ack, window, MSS and FIN, and reaches
    the §8 teardown like any other.  A connection whose SYNs never merged
    takes its sequence origin from the local TCB (Δ = 0), or is dropped
    if none is left.  New connections are ordinary TCP. *)

val reinstate : t -> secondary_addr:Tcpfo_packet.Ipaddr.t -> unit
(** Reintegration (beyond the paper's scope): pair with a fresh secondary.
    Connections that outlived the old secondary stay solo unless hot state
    transfer re-replicates them (below); new connections are replicated
    again. *)

(** {1 Hot state transfer}

    Per-connection quiesce / cut-over used by
    {!Tcpfo_core.Replicated.reintegrate} to re-replicate live
    connections onto a repaired replica.  Protocol: [begin_transfer]
    (parks local TCP output, taps client datagrams) → snapshot shipped →
    on acceptance [complete_transfer] (re-arms the bridge connection
    around the restored pair, releases the hold through the merge path,
    re-forwards tapped client datagrams to the replica) or on
    rejection/timeout [abort_transfer] (pins the connection solo and
    releases the hold through the same path). *)

val begin_transfer :
  t -> remote:Tcpfo_packet.Ipaddr.t * int -> local_port:int -> unit
(** Quiesce one connection: must be called in the same simulation
    instant as {!Tcpfo_tcp.Tcb.snapshot}.  Creates the bridge connection
    if the bridge has none yet (fresh bridge on a promoted survivor). *)

val complete_transfer :
  t ->
  remote:Tcpfo_packet.Ipaddr.t * int ->
  local_port:int ->
  frontier:Tcpfo_tcp.Tcb.frontier ->
  snapshot:Tcpfo_tcp.Tcb.snapshot ->
  delta:int ->
  unit
(** Cut over: the repaired replica accepted the snapshot.  [frontier]
    is the surviving local connection's, read now; [snapshot] the image
    the replica was installed from, in wire numbering — merging resumes
    at its send frontier, so
    output the survivor produced during the hold merges against the
    replica's own copy; [delta] the (re-established) Δseq — 0 for a
    promoted survivor, the pre-failure Δseq for a surviving primary. *)

val abort_transfer :
  t -> remote:Tcpfo_packet.Ipaddr.t * int -> local_port:int -> unit
(** Transfer failed: pin the connection solo, as {!secondary_failed}
    does, release held output through the solo merge path and drop the
    tap.  The connection continues solo. *)

val isolate_conn :
  t -> remote:Tcpfo_packet.Ipaddr.t * int -> local_port:int -> unit
(** Pin a connection that is not being transferred solo, as
    {!secondary_failed} does, so its segments can never merge with the
    fresh replica's different sequence numbers. *)

val conn_delta :
  t -> remote:Tcpfo_packet.Ipaddr.t * int -> local_port:int -> int option
(** The recorded Δseq for a connection, if it ever merged. *)

val connection_count : t -> int

val stale_count : t -> int
(** Entries still [Active] (not lingering after the §8 teardown) for a
    connection the host no longer holds as a live TCB: gone, or in
    TIME_WAIT.  The bridge keeps such an entry until the client resets
    the connection. *)

module For_testing : sig
  val held_bytes : t -> int
  (** Reply bytes the bridge holds across its connections.  Only the
      secondary's unmatched output counts: the primary's is read from its
      own send buffer when it merges. *)
end

val degraded : t -> bool
