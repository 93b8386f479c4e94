(** RFC-layout encoding and decoding of TCP segments and IPv4 headers.

    The simulator moves structured values for speed, but these codecs are
    the ground truth for sizes and checksums: the bridge's incremental
    checksum adjustment (paper §3.1) is validated against a full re-encode
    in the test suite, and hosts can be configured to round-trip every
    segment through octets to prove nothing depends on structure sharing. *)

exception Malformed of string

val encode_tcp :
  src_ip:Ipaddr.t -> dst_ip:Ipaddr.t -> Tcp_segment.t -> bytes
(** Encode with a valid checksum computed over the IPv4 pseudo-header. *)

val decode_tcp :
  src_ip:Ipaddr.t -> dst_ip:Ipaddr.t -> bytes -> Tcp_segment.t
(** Raises {!Malformed} on short input, bad offsets or checksum mismatch. *)

val encode_ipv4_header : Ipv4_packet.t -> payload_len:int -> bytes
(** The 20-byte header with a valid header checksum.  The simulator
    moves structured datagrams, so only [Ip_layer]'s wire round-trip
    validation mode encodes headers. *)

val decode_ipv4_header : bytes -> Ipaddr.t * Ipaddr.t * int * int
(** [decode_ipv4_header b] returns (src, dst, protocol, total_len).
    Raises {!Malformed} on checksum or version errors, when [total_len]
    is smaller than the 20-byte header, and — when [b] holds more than
    the bare header, i.e. the datagram itself — when [total_len] claims
    more bytes than [b] actually contains (truncation). *)

val rewrite_dst_ip :
  src_ip:Ipaddr.t -> old_dst:Ipaddr.t -> new_dst:Ipaddr.t -> bytes -> unit
(** Patch the destination address inside an encoded TCP segment's checksum
    in place, using the incremental RFC 1624 update — the operation the
    bridge performs when diverting segments.  (The address itself lives in
    the IP header; only the TCP pseudo-header checksum needs fixing.) *)
