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

let make ?(ttl = 64) ?(ident = 0) ~src ~dst payload =
  { src; dst; ttl; ident; payload }

let protocol_number = function
  | Tcp _ -> 6
  | Raw { proto; _ } -> proto

let payload_length = function
  | Tcp seg -> Tcp_segment.wire_length seg
  | Raw { data; _ } -> String.length data

let wire_length t = 20 + payload_length t.payload

let pp fmt t =
  match t.payload with
  | Tcp seg ->
    Format.fprintf fmt "%a>%a %a" Ipaddr.pp t.src Ipaddr.pp t.dst
      Tcp_segment.pp seg
  | Raw { proto; data } ->
    Format.fprintf fmt "%a>%a raw proto=%d len=%d" Ipaddr.pp t.src Ipaddr.pp
      t.dst proto (String.length data)
