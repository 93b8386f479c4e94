(** IPv4 datagrams as structured values.

    The payload is either a structured TCP segment or the raw body of
    any other IP protocol: the failover system's control channels
    (heartbeats, hot state transfer, dispatcher probes — each decoded by
    its owner, see [Ip_layer.register]) and cross-traffic. *)

type payload =
  | Tcp of Tcp_segment.t
  | Raw of { proto : int; data : string }

type t = {
  src : Ipaddr.t;
  dst : Ipaddr.t;
  ttl : int;
  ident : int;
  payload : payload;
}

val make : ?ttl:int -> ?ident:int -> src:Ipaddr.t -> dst:Ipaddr.t ->
  payload -> t

val protocol_number : payload -> int
(** 6 for TCP, the carried number for raw payloads. *)

val wire_length : t -> int
(** 20-byte header (no IP options modelled) plus payload length. *)

val pp : Format.formatter -> t -> unit
