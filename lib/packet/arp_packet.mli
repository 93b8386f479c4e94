(** ARP requests and replies (RFC 826), including gratuitous ARP — the
    mechanism the secondary server uses for IP takeover (paper §5, step 5). *)

type op = Request | Reply

type t = {
  op : op;
  sender_mac : Macaddr.t;
  sender_ip : Ipaddr.t;
  target_mac : Macaddr.t; (* zero/ignored in requests *)
  target_ip : Ipaddr.t;
}

val request : sender_mac:Macaddr.t -> sender_ip:Ipaddr.t ->
  target_ip:Ipaddr.t -> t

val reply : sender_mac:Macaddr.t -> sender_ip:Ipaddr.t ->
  target_mac:Macaddr.t -> target_ip:Ipaddr.t -> t

val gratuitous : sender_mac:Macaddr.t -> ip:Ipaddr.t -> t
(** Gratuitous ARP announcement: sender and target IP are both [ip];
    broadcast so every cache on the segment updates its binding. *)

val wire_length : int
(** 28 bytes for Ethernet/IPv4 ARP. *)

val pp : Format.formatter -> t -> unit
