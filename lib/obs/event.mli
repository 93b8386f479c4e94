(** Structured trace events.

    Typed replacement for the old printf [Trace] layer: each interesting
    action in the simulation (segment motion, bridge divert/merge/hold,
    failover phases, ARP takeover) is a constructor carrying the values
    a consumer would otherwise have to parse back out of a log line.

    Events flow through a {!Bus}.  Emission sites are expected to guard
    on {!Bus.active} before building the event value, so a bus with no
    subscribers costs one load and a branch. *)

type failover_phase =
  | Detected  (** heartbeat loss noticed *)
  | Takeover_started  (** survivor begins promoting held state *)
  | Takeover_complete  (** survivor owns the connections *)
  | Degraded  (** primary continues without a backup (paper §6) *)
  | Reintegrated  (** a fresh backup has been merged back in *)

type transfer_phase =
  | Started of { offers : int; isolated : int }
      (** [offers] connections queued to travel; [isolated] pinned solo
          at once, untransferable *)
  | Settled of { moved : int; isolated : int }
      (** every offer answered: [moved] re-replicated, [isolated] pinned
          solo in all (the untransferable ones included) *)

type t =
  | Segment_tx of { host : string; dst : Tcpfo_packet.Ipaddr.t; seg : Tcpfo_packet.Tcp_segment.t }
      (** A host's IP layer handed a TCP segment to the wire. *)
  | Segment_rx of { host : string; src : Tcpfo_packet.Ipaddr.t; seg : Tcpfo_packet.Tcp_segment.t }
      (** A host's IP layer delivered a TCP segment upward. *)
  | Segment_drop of { host : string; reason : string; seg : Tcpfo_packet.Tcp_segment.t }
      (** A segment was deliberately discarded (e.g. data racing ahead of
          an unmerged SYN at the primary bridge). *)
  | Divert of { host : string; orig_dst : Tcpfo_packet.Ipaddr.t; seg : Tcpfo_packet.Tcp_segment.t }
      (** The secondary snooped a client segment and re-addressed it to
          the primary with an [Orig_dst] option (paper §3.1). *)
  | Merge of { host : string; port : int; bytes : int }
      (** The primary merged twin SYN/data replicas for a server port. *)
  | Hold of { host : string; bytes : int }
      (** The secondary buffered payload bytes pending the joint ACK. *)
  | Failover of { host : string; phase : failover_phase }
  | Arp_takeover of { host : string; ip : Tcpfo_packet.Ipaddr.t }
      (** Gratuitous ARP rebinding a service IP to a new MAC (paper §5). *)
  | Promoted of { host : string }
      (** A cold standby joined a pool's active pair, replacing a dead
          member (it then receives a hot state transfer). *)
  | Hot_transfer of { host : string; dst : Tcpfo_packet.Ipaddr.t; phase : transfer_phase }
      (** Hot state transfer from [host] onto the fresh replica [dst]. *)
  | Weight_shift of { shard : string; weight : int; reason : string }
      (** The dispatcher tier moved a shard's routing weight — hera-style
          gradual shifting on degradation ([reason = "decay"]), probe
          loss ([reason = "probe-timeout"]), or post-restore ramp-up
          ([reason = "ramp"]). *)

val pp : Format.formatter -> t -> unit
(** One-line rendering, e.g. ["secondary divert 10.0.0.2 5000->80 S seq=.."]. *)

val is_segment : t -> bool
(** [Segment_tx]/[Segment_rx] — the high-volume events, so consumers can
    cheaply keep only the interesting control-plane ones. *)

module Bus : sig
  type event = t

  type t
  (** A set of subscribers.  One bus serves a whole simulated world. *)

  type sub

  val create : unit -> t

  val active : t -> bool
  (** [true] iff at least one subscriber is attached.  Emission sites
      check this before constructing event values, which is what makes
      tracing free when nobody listens. *)

  val subscribe : t -> (at:Tcpfo_sim.Time.t -> event -> unit) -> sub

  val emit : t -> at:Tcpfo_sim.Time.t -> event -> unit
  (** Deliver to all subscribers in subscription order.  Cheap no-op when
      inactive, but callers on hot paths should still guard with
      {!active} to avoid building the event. *)

  val attach_console :
    ?out:Format.formatter -> ?filter:(event -> bool) -> t -> sub
  (** Subscribe a printer writing ["[<time>] <event>"] lines, one per
      event passing [filter] (default: everything).  [out] defaults to
      stderr. *)
end
