module Checksum = Tcpfo_util.Checksum
module Seq32 = Tcpfo_util.Seq32

exception Malformed of string

let get16 b off = (Char.code (Bytes.get b off) lsl 8)
                  lor Char.code (Bytes.get b (off + 1))

let get32 b off = (get16 b off lsl 16) lor get16 b (off + 2)

let set16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 1) (Char.chr (v land 0xFF))

let set32 b off v =
  set16 b off ((v lsr 16) land 0xFFFF);
  set16 b (off + 2) (v land 0xFFFF)

(* Pseudo-header sum: src, dst, zero+proto(6), tcp length. *)
let pseudo_sum ~src_ip ~dst_ip ~tcp_len =
  let s = Ipaddr.to_int src_ip and d = Ipaddr.to_int dst_ip in
  (s lsr 16) + (s land 0xFFFF) + (d lsr 16) + (d land 0xFFFF) + 6 + tcp_len

let tcp_checksum ~src_ip ~dst_ip b =
  let accum = pseudo_sum ~src_ip ~dst_ip ~tcp_len:(Bytes.length b) in
  Checksum.of_bytes ~accum b

let flags_byte (f : Tcp_segment.flags) =
  (if f.fin then 0x01 else 0) lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0) lor (if f.psh then 0x08 else 0)
  lor (if f.ack then 0x10 else 0) lor if f.urg then 0x20 else 0

let flags_of_byte v : Tcp_segment.flags =
  { fin = v land 0x01 <> 0; syn = v land 0x02 <> 0; rst = v land 0x04 <> 0;
    psh = v land 0x08 <> 0; ack = v land 0x10 <> 0; urg = v land 0x20 <> 0 }

(* Option kinds: 0 EOL, 1 NOP, 2 MSS, 253 experimental = Orig_dst
   (failover option, §3.1).  Every other kind is skipped on decode. *)
let encode_options opts =
  let buf = Buffer.create 8 in
  List.iter
    (fun (o : Tcp_segment.option_) ->
      match o with
      | Nop -> Buffer.add_char buf '\001'
      | Mss m ->
        Buffer.add_char buf '\002';
        Buffer.add_char buf '\004';
        Buffer.add_char buf (Char.chr ((m lsr 8) land 0xFF));
        Buffer.add_char buf (Char.chr (m land 0xFF))
      | Orig_dst ip ->
        let v = Ipaddr.to_int ip in
        Buffer.add_char buf '\253';
        Buffer.add_char buf '\006';
        Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
        Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
        Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
        Buffer.add_char buf (Char.chr (v land 0xFF)))
    opts;
  (* pad with EOL to a 4-byte boundary *)
  while Buffer.length buf mod 4 <> 0 do
    Buffer.add_char buf '\000'
  done;
  Buffer.contents buf

let decode_options s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match Char.code s.[i] with
      | 0 -> List.rev acc (* EOL *)
      | 1 -> go (i + 1) (Tcp_segment.Nop :: acc)
      | kind ->
        if i + 1 >= n then raise (Malformed "option length truncated");
        let len = Char.code s.[i + 1] in
        if len < 2 || i + len > n then raise (Malformed "bad option length");
        let acc =
          match kind with
          | 2 when len = 4 ->
            let m = (Char.code s.[i + 2] lsl 8) lor Char.code s.[i + 3] in
            Tcp_segment.Mss m :: acc
          | 253 when len = 6 ->
            let v =
              (Char.code s.[i + 2] lsl 24) lor (Char.code s.[i + 3] lsl 16)
              lor (Char.code s.[i + 4] lsl 8) lor Char.code s.[i + 5]
            in
            Tcp_segment.Orig_dst (Ipaddr.of_int v) :: acc
          | _ -> acc (* unknown options are skipped *)
        in
        go (i + len) acc
  in
  go 0 []

let encode_tcp ~src_ip ~dst_ip (seg : Tcp_segment.t) =
  let opts = encode_options seg.options in
  let hlen = 20 + String.length opts in
  assert (hlen mod 4 = 0 && hlen <= 60);
  let total = hlen + String.length seg.payload in
  let b = Bytes.make total '\000' in
  set16 b 0 seg.src_port;
  set16 b 2 seg.dst_port;
  set32 b 4 (Seq32.to_int seg.seq);
  set32 b 8 (Seq32.to_int seg.ack);
  Bytes.set b 12 (Char.chr ((hlen / 4) lsl 4));
  Bytes.set b 13 (Char.chr (flags_byte seg.flags));
  set16 b 14 seg.window;
  (* checksum at 16 stays zero for now *)
  set16 b 18 seg.urgent;
  Bytes.blit_string opts 0 b 20 (String.length opts);
  Bytes.blit_string seg.payload 0 b hlen (String.length seg.payload);
  let ck = tcp_checksum ~src_ip ~dst_ip b in
  set16 b 16 ck;
  b

let decode_tcp ~src_ip ~dst_ip b : Tcp_segment.t =
  if Bytes.length b < 20 then raise (Malformed "short TCP header");
  let hlen = (Char.code (Bytes.get b 12) lsr 4) * 4 in
  if hlen < 20 || hlen > Bytes.length b then
    raise (Malformed "bad data offset");
  let accum = pseudo_sum ~src_ip ~dst_ip ~tcp_len:(Bytes.length b) in
  if Checksum.finish (Checksum.partial ~accum b) <> 0 then
    raise (Malformed "TCP checksum mismatch");
  let options =
    decode_options (Bytes.sub_string b 20 (hlen - 20))
  in
  {
    src_port = get16 b 0;
    dst_port = get16 b 2;
    seq = Seq32.of_int (get32 b 4);
    ack = Seq32.of_int (get32 b 8);
    flags = flags_of_byte (Char.code (Bytes.get b 13));
    window = get16 b 14;
    urgent = get16 b 18;
    options;
    payload = Bytes.sub_string b hlen (Bytes.length b - hlen);
  }

let encode_ipv4_header (p : Ipv4_packet.t) ~payload_len =
  let b = Bytes.make 20 '\000' in
  Bytes.set b 0 '\x45';
  set16 b 2 (20 + payload_len);
  set16 b 4 p.ident;
  Bytes.set b 8 (Char.chr (p.ttl land 0xFF));
  Bytes.set b 9 (Char.chr (Ipv4_packet.protocol_number p.payload));
  set32 b 12 (Ipaddr.to_int p.src);
  set32 b 16 (Ipaddr.to_int p.dst);
  let ck = Checksum.of_bytes b in
  set16 b 10 ck;
  b

let decode_ipv4_header b =
  if Bytes.length b < 20 then raise (Malformed "short IPv4 header");
  if Char.code (Bytes.get b 0) lsr 4 <> 4 then raise (Malformed "not IPv4");
  if not (Checksum.valid (Bytes.sub b 0 20)) then
    raise (Malformed "IPv4 header checksum mismatch");
  let src = Ipaddr.of_int (get32 b 12) in
  let dst = Ipaddr.of_int (get32 b 16) in
  let proto = Char.code (Bytes.get b 9) in
  let total = get16 b 2 in
  if total < 20 then raise (Malformed "IPv4 total length below header size");
  if Bytes.length b > 20 && total > Bytes.length b then
    raise (Malformed "IPv4 total length exceeds datagram");
  (src, dst, proto, total)

let rewrite_dst_ip ~src_ip:_ ~old_dst ~new_dst b =
  if Bytes.length b < 18 then raise (Malformed "short TCP header");
  let ck = get16 b 16 in
  let ck' =
    Checksum.adjust32 ck ~old32:(Ipaddr.to_int old_dst)
      ~new32:(Ipaddr.to_int new_dst)
  in
  set16 b 16 ck'
