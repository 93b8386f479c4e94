(** Network interface card attached to a shared Ethernet {!Medium}.

    The NIC's receive filter lives in the medium's station table: it
    takes frames for its MAC and broadcasts, and in promiscuous mode the
    frames its [host] filter passes — the secondary server's bridge
    enables it to snoop every datagram the client sends to the primary
    (paper §3.1) and disables it again during failover (paper §5,
    step 2).  Frames the filter refuses never reach the NIC. *)

type t

val create :
  Tcpfo_sim.Engine.t ->
  mac:Tcpfo_packet.Macaddr.t ->
  ?obs:Tcpfo_obs.Obs.t ->
  Medium.t ->
  t
(** Counters [nic.rx] (frames the medium handed to the NIC, which are
    the frames its filter takes) and [nic.tx] are registered under
    [obs]. *)

val mac : t -> Tcpfo_packet.Macaddr.t

val set_promiscuous : t -> ?host:Tcpfo_packet.Ipaddr.t -> bool -> unit
(** See {!Medium.set_promiscuous}: without [host] the NIC takes every
    frame; with [~host:a] the [host a] filter passes what it takes. *)

val add_address : t -> Tcpfo_packet.Ipaddr.t -> unit
(** Tell the filter about one of the host's addresses on this NIC
    ({!Medium.add_address}). *)

val set_partitioned : t -> bool -> unit
(** While partitioned the NIC stays attached to the medium but silently
    discards everything: incoming frames are never handed to it and
    outgoing frames never reach the wire.  Models unplugging the cable
    (or a switch port going down) without the host noticing — unlike
    {!shutdown}, the fault is reversible. *)

val partitioned : t -> bool

val set_rx :
  t -> (Tcpfo_packet.Eth_frame.t -> addressed_to_me:bool -> unit) -> unit
(** Upcall for accepted frames.  [addressed_to_me] is true for unicast
    frames matching our MAC and for broadcast; false for frames only seen
    because promiscuous mode is on. *)

val send : t -> dst:Tcpfo_packet.Macaddr.t -> Tcpfo_packet.Eth_frame.payload -> unit

val up : t -> bool

val shutdown : t -> unit
(** Detach from the medium; no further tx or rx.  Crash-fault injection. *)
