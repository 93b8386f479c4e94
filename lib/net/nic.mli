(** Network interface card attached to a shared Ethernet {!Medium}.

    Filters incoming frames by destination MAC unless promiscuous mode is
    enabled — the secondary server's bridge enables it to snoop every
    datagram the client sends to the primary (paper §3.1) and disables it
    again during failover (paper §5, step 2). *)

type t

val create :
  Tcpfo_sim.Engine.t ->
  mac:Tcpfo_packet.Macaddr.t ->
  ?obs:Tcpfo_obs.Obs.t ->
  Medium.t ->
  t
(** Counters [nic.rx] (accepted frames) and [nic.tx] are registered
    under [obs]. *)

val mac : t -> Tcpfo_packet.Macaddr.t

val set_promiscuous : t -> bool -> unit

val set_partitioned : t -> bool -> unit
(** While partitioned the NIC stays attached to the medium but silently
    discards everything: incoming frames are never delivered upward and
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
