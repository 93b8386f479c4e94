(** TCP segments as structured values.

    The simulator passes segments around in structured form for speed, but
    the layout mirrors RFC 793 exactly and {!Wire} can encode/decode any
    segment to real octets (with a valid checksum over the IPv4
    pseudo-header).  The [Orig_dst] option is the failover bridge's TCP
    header option carrying the original destination of a diverted segment
    (paper §3.1). *)

type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
}

val no_flags : flags
val flags_to_string : flags -> string

type option_ = Mss of int | Orig_dst of Ipaddr.t | Nop
(** The options the stack and the bridge speak.  {!Wire} skips every
    other option kind on decode. *)

type t = {
  src_port : int;
  dst_port : int;
  seq : Tcpfo_util.Seq32.t;
  ack : Tcpfo_util.Seq32.t; (* meaningful iff flags.ack *)
  flags : flags;
  window : int;
  urgent : int;
  options : option_ list;
  payload : string;
}

val make :
  ?flags:flags ->
  ?ack:Tcpfo_util.Seq32.t ->
  ?window:int ->
  ?options:option_ list ->
  ?payload:string ->
  src_port:int ->
  dst_port:int ->
  seq:Tcpfo_util.Seq32.t ->
  unit ->
  t

val payload_length : t -> int

val seq_length : t -> int
(** Sequence space the segment occupies: payload bytes plus one for SYN and
    one for FIN. *)

val seq_end : t -> Tcpfo_util.Seq32.t
(** [seq + seq_length]. *)

val header_length : t -> int
(** Wire header size in bytes, options padded to a multiple of 4. *)

val wire_length : t -> int
(** [header_length + payload_length]. *)

val mss_option : t -> int option
val orig_dst_option : t -> Ipaddr.t option

val pp : Format.formatter -> t -> unit
(** Compact one-line rendering for traces, e.g.
    ["5000->80 SA seq=1 ack=2 win=65535 len=0 <mss 1460>"] *)
