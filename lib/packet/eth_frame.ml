type payload = Arp of Arp_packet.t | Ip of Ipv4_packet.t

type t = { src : Macaddr.t; dst : Macaddr.t; payload : payload }

let make ~src ~dst payload = { src; dst; payload }

let wire_length t =
  let payload_len =
    match t.payload with
    | Arp _ -> Arp_packet.wire_length
    | Ip p -> Ipv4_packet.wire_length p
  in
  Int.max 64 (14 + payload_len + 4)

let pp fmt t =
  match t.payload with
  | Arp a -> Format.fprintf fmt "[%a>%a] %a" Macaddr.pp t.src Macaddr.pp t.dst
               Arp_packet.pp a
  | Ip p -> Format.fprintf fmt "[%a>%a] %a" Macaddr.pp t.src Macaddr.pp t.dst
              Ipv4_packet.pp p
