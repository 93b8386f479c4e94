(** Daisy-chained replication — the paper's §1 future work ("higher
    degrees of replication can be achieved by daisy-chaining multiple
    backup servers"), built compositionally from the two-replica bridges:

    - the head runs the paper's primary bridge and talks to the client;
    - each middle replica runs the *same* merging bridge, but diverts its
      merged output to the replica above instead of to the client — from
      above, a middle replica and everything below it are
      indistinguishable from a single secondary;
    - the tail runs the plain secondary bridge, diverting to the replica
      above it.

    The wire sequence space is the deepest replica's; every level
    subtracts its own Δseq, the joint acknowledgment/window minima
    compose, and the merged SYN carries the minimum MSS of the whole
    chain.

    Failures are detected by the pool's own {!Heartbeat} detector: every
    pair of live replicas runs the two watchers a pool pair runs, the
    replica earlier in the chain beating as the primary.
    - head dies → the next replica promotes through its bridge's §5
      takeover ({!Primary_bridge.promote} for a merging replica,
      {!Secondary_bridge.begin_takeover} for a tail): output flips to
      direct, promiscuous mode goes off, and it takes over the service
      address (gratuitous ARP);
    - a middle replica dies → the replica below re-diverts to the replica
      above; queues and sequence spaces need no adjustment because every
      level already speaks the deepest replica's space;
    - the tail dies → the replica above degrades per §6 (flushes its
      queue, continues offset-only) while still diverting upstream if it
      is itself a middle replica.

    Any sequence of failures down to a single survivor is handled, and
    repaired hosts {!rejoin} at the tail of the live chain: the previous
    end of chain becomes a merging level over the newcomer and every
    live service connection is re-replicated onto it by hot state
    transfer, so the chain survives repeated kill/repair cycles on any
    tier byte-exactly.

    A {!Replicated} pool's active pair is a two-replica chain: pools
    add only their cold standbys on top, so this module is the one
    owner of failure detection, §5 takeover, §6 degrade and re-pairing
    for both front ends. *)

type t

val create :
  replicas:Tcpfo_host.Host.t list ->
  config:Failover_config.t ->
  unit ->
  t
(** [replicas] ordered head first; at least 2.  The service address is the
    head's. *)

val service_addr : t -> Tcpfo_packet.Ipaddr.t
val registry : t -> Failover_config.registry

val listen :
  t ->
  port:int ->
  on_accept:(replica:int -> Tcpfo_tcp.Tcb.t -> unit) ->
  unit
(** Run the replicated server application identically on every replica;
    [replica] is the index in the original [replicas] list. *)

val connect_backend :
  t ->
  remote:Tcpfo_packet.Ipaddr.t * int ->
  ?local_port:int ->
  setup:(replica:int -> Tcpfo_tcp.Tcb.t -> unit) ->
  unit ->
  unit
(** §7.2 through the chain: every *live* replica opens the connection to
    the unreplicated server from the service address; the merging levels
    collapse them into a single wire connection.  Input retention is
    enabled at connect time and [setup] is recorded against [remote], so
    the connection is transferable onto a later {!rejoin}ed tail. *)

val alive : t -> int list
(** Indices of live replicas in chain order, head first.  Replicas that
    {!rejoin}ed appear at the position they hold in the live chain (the
    tail), not at their creation position. *)

val head : t -> int
(** Index of the current head. *)

val host : t -> int -> Tcpfo_host.Host.t
(** The host of replica [i], live or dead. *)

type bridge = Merger of Primary_bridge.t | Tail of Secondary_bridge.t

val bridge : t -> int -> bridge
(** Replica [i]'s bridge: a merging one on the head and middle
    replicas, the secondary bridge on the original tail and on every
    rejoined tail. *)

val kill : t -> int -> unit
(** Crash replica [i] (fail-stop); detectors react. *)

val rejoin : t -> Tcpfo_host.Host.t -> int
(** A repaired (or new) host re-enters the chain at the tail and the
    returned fresh replica index names it from now on (indices are never
    reused).  The previous end of chain becomes a merging level over the
    newcomer — a degraded merger is reinstated; an original tail swaps
    its secondary bridge for the merging bridge (keeping its diversion
    target, or [Direct] output if it had become head).  The newcomer
    diverts to the service address if the previous end of chain is the
    head, else to that replica's own address.  The registered services
    start on the newcomer, every live replica pairs its detector with
    it, and every live service connection is quiesced, snapshotted into
    wire sequence space and shipped onto it ({!Transfers_complete});
    connections that cannot travel are pinned solo ({!Isolated}).
    Raises [Invalid_argument] for a dead host, a host already in the
    live chain, or while a §5 takeover is still in flight. *)

type event =
  | Death_detected of int
      (** a detector watching this replica timed out: it leaves the
          live chain and every detector pair it was part of stops *)
  | Promoted of int  (** replica became head and owns the service address *)
  | Retargeted of int * int  (** replica i now diverts to replica j *)
  | Degraded of int  (** replica lost the node below it (§6) *)
  | Rejoined of int  (** a repaired host joined as this (fresh) tail index *)
  | Transfers_complete of int
      (** rejoin's hot state transfer settled; payload counts the
          connections re-replicated onto the new tail *)
  | Isolated of {
      local_port : int;
      remote : Tcpfo_packet.Ipaddr.t * int;
      state : Tcpfo_tcp.Tcb.state;
    }
      (** a live connection could not be re-replicated onto the rejoined
          tail and was demoted to solo, its TCB in [state]; bumps
          [statex.isolated_conns] *)

val event_to_string : event -> string
(** One-line human description, for traces and CLIs — kept exhaustive
    over every constructor (tested) so soak reports can never print an
    event as a gap. *)

val set_on_event : t -> (event -> unit) -> unit

val pending_transfers : t -> int
(** Hot-state-transfer offers of the latest {!rejoin} still awaiting a
    verdict (0 once it has settled). *)

val transfer_failures : t -> int
(** Transfers that ended in Reject or retry-budget exhaustion since the
    chain was created; nonzero under a merely lossy channel is an
    invariant violation. *)

val transfer_stats : t -> Tcpfo_statex.Transfer.stats
(** Aggregate control-channel counters ([statex.*] scope). *)
