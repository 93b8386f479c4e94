module Seq32 = Tcpfo_util.Seq32

type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
}

let no_flags =
  { syn = false; ack = false; fin = false; rst = false; psh = false;
    urg = false }

let flags_to_string f =
  let b c p = if p then String.make 1 c else "" in
  let s =
    b 'S' f.syn ^ b 'A' f.ack ^ b 'F' f.fin ^ b 'R' f.rst ^ b 'P' f.psh
    ^ b 'U' f.urg
  in
  if s = "" then "." else s

type option_ = Mss of int | Orig_dst of Ipaddr.t | Nop

type t = {
  src_port : int;
  dst_port : int;
  seq : Seq32.t;
  ack : Seq32.t;
  flags : flags;
  window : int;
  urgent : int;
  options : option_ list;
  payload : string;
}

let make ?(flags = no_flags) ?(ack = Seq32.zero) ?(window = 65535)
    ?(options = []) ?(payload = "") ~src_port ~dst_port ~seq () =
  { src_port; dst_port; seq; ack; flags; window; urgent = 0; options;
    payload }

let payload_length t = String.length t.payload

let seq_length t =
  payload_length t + (if t.flags.syn then 1 else 0)
  + if t.flags.fin then 1 else 0

let seq_end t = Seq32.add t.seq (seq_length t)

let option_wire_length = function
  | Mss _ -> 4
  | Orig_dst _ -> 6
  | Nop -> 1

let header_length t =
  let opts =
    List.fold_left (fun acc o -> acc + option_wire_length o) 0 t.options
  in
  20 + ((opts + 3) / 4 * 4)

let wire_length t = header_length t + payload_length t

let find_map_option t f = List.find_map f t.options

let mss_option t =
  find_map_option t (function Mss m -> Some m | _ -> None)

let orig_dst_option t =
  find_map_option t (function Orig_dst a -> Some a | _ -> None)

let pp fmt t =
  Format.fprintf fmt "%d->%d %s seq=%a" t.src_port t.dst_port
    (flags_to_string t.flags) Seq32.pp t.seq;
  if t.flags.ack then Format.fprintf fmt " ack=%a" Seq32.pp t.ack;
  Format.fprintf fmt " win=%d len=%d" t.window (payload_length t);
  List.iter
    (fun o ->
      match o with
      | Mss m -> Format.fprintf fmt " <mss %d>" m
      | Orig_dst a -> Format.fprintf fmt " <odst %a>" Ipaddr.pp a
      | Nop -> ())
    t.options
