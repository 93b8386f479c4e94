module Seq32 = Tcpfo_util.Seq32
module Ipaddr = Tcpfo_packet.Ipaddr
module Macaddr = Tcpfo_packet.Macaddr
module Seg = Tcpfo_packet.Tcp_segment
module Wire = Tcpfo_packet.Wire
module Ipv4_packet = Tcpfo_packet.Ipv4_packet

let ip_a = Ipaddr.of_string "10.0.0.1"
let ip_b = Ipaddr.of_string "10.0.0.2"
let ip_c = Ipaddr.of_string "192.168.7.9"

let test_addr_parse () =
  Testutil.check_string "roundtrip" "10.0.0.1" (Ipaddr.to_string ip_a);
  Testutil.check_int "int value" 0x0A000001 (Ipaddr.to_int ip_a);
  Alcotest.check_raises "bad" (Invalid_argument "Ipaddr.of_string: 1.2.3")
    (fun () -> ignore (Ipaddr.of_string "1.2.3"))

let test_mac_parse () =
  let m = Macaddr.of_string "02:00:00:00:00:2a" in
  Testutil.check_int "int" 0x02000000002a (Macaddr.to_int m);
  Testutil.check_string "string" "02:00:00:00:00:2a" (Macaddr.to_string m);
  Testutil.check_bool "bcast" true (Macaddr.is_broadcast Macaddr.broadcast)

let test_network () =
  Testutil.check_bool "same /24" true
    (Ipaddr.same_network ip_a ip_b ~prefix:24);
  Testutil.check_bool "diff /24" false
    (Ipaddr.same_network ip_a ip_c ~prefix:24)

let mk_segment () =
  Seg.make
    ~flags:{ Seg.no_flags with syn = true; ack = true }
    ~ack:(Seq32.of_int 123456)
    ~window:8192
    ~options:[ Seg.Mss 1460; Seg.Orig_dst ip_c ]
    ~payload:"hello, failover" ~src_port:80 ~dst_port:54321
    ~seq:(Seq32.of_int 0xFFFFFF00) ()

let test_tcp_roundtrip () =
  let seg = mk_segment () in
  let b = Wire.encode_tcp ~src_ip:ip_a ~dst_ip:ip_b seg in
  let seg' = Wire.decode_tcp ~src_ip:ip_a ~dst_ip:ip_b b in
  Testutil.check_int "src port" seg.src_port seg'.src_port;
  Testutil.check_int "dst port" seg.dst_port seg'.dst_port;
  Testutil.check_int "seq" (Seq32.to_int seg.seq) (Seq32.to_int seg'.seq);
  Testutil.check_int "ack" (Seq32.to_int seg.ack) (Seq32.to_int seg'.ack);
  Testutil.check_bool "syn" true seg'.flags.syn;
  Testutil.check_bool "ackf" true seg'.flags.ack;
  Testutil.check_int "window" seg.window seg'.window;
  Testutil.check_string "payload" seg.payload seg'.payload;
  Testutil.check_bool "mss" true (Seg.mss_option seg' = Some 1460);
  Testutil.check_bool "orig dst" true (Seg.orig_dst_option seg' = Some ip_c)

let test_checksum_detects_corruption () =
  let seg = mk_segment () in
  let b = Wire.encode_tcp ~src_ip:ip_a ~dst_ip:ip_b seg in
  Bytes.set b 25 (Char.chr (Char.code (Bytes.get b 25) lxor 0x40));
  Alcotest.check_raises "corrupted"
    (Wire.Malformed "TCP checksum mismatch") (fun () ->
      ignore (Wire.decode_tcp ~src_ip:ip_a ~dst_ip:ip_b b))

let test_checksum_binds_pseudo_header () =
  let seg = mk_segment () in
  let b = Wire.encode_tcp ~src_ip:ip_a ~dst_ip:ip_b seg in
  Alcotest.check_raises "wrong dst" (Wire.Malformed "TCP checksum mismatch")
    (fun () -> ignore (Wire.decode_tcp ~src_ip:ip_a ~dst_ip:ip_c b))

let test_rewrite_dst_incremental () =
  (* The bridge diverts a segment from dst ip_b to dst ip_c and fixes the
     checksum incrementally; the result must verify under the new
     pseudo-header. *)
  let seg = mk_segment () in
  let b = Wire.encode_tcp ~src_ip:ip_a ~dst_ip:ip_b seg in
  Wire.rewrite_dst_ip ~src_ip:ip_a ~old_dst:ip_b ~new_dst:ip_c b;
  let seg' = Wire.decode_tcp ~src_ip:ip_a ~dst_ip:ip_c b in
  Testutil.check_string "payload survives" seg.payload seg'.payload

let test_header_length_padding () =
  let seg =
    Seg.make ~options:[ Seg.Mss 1460 ] ~src_port:1 ~dst_port:2
      ~seq:Seq32.zero ()
  in
  Testutil.check_int "mss only" 24 (Seg.header_length seg);
  let seg2 =
    Seg.make
      ~options:[ Seg.Orig_dst ip_a ]
      ~src_port:1 ~dst_port:2 ~seq:Seq32.zero ()
  in
  (* 6-byte option padded to 8 *)
  Testutil.check_int "orig_dst padded" 28 (Seg.header_length seg2)

let test_ipv4_header_roundtrip () =
  let p =
    Ipv4_packet.make ~ttl:17 ~ident:99 ~src:ip_a ~dst:ip_b
      (Ipv4_packet.Raw { proto = 47; data = "xyz" })
  in
  let b = Wire.encode_ipv4_header p ~payload_len:3 in
  let src, dst, proto, total = Wire.decode_ipv4_header b in
  Testutil.check_bool "src" true (Ipaddr.equal src ip_a);
  Testutil.check_bool "dst" true (Ipaddr.equal dst ip_b);
  Testutil.check_int "proto" 47 proto;
  Testutil.check_int "total" 23 total

(* Raw bytes of the options the stack no longer speaks: window scale (3),
   SACK-permitted (4), SACK blocks (5) and timestamps (8).  The decoder
   must skip each one by its length. *)
let gen_foreign_option =
  let open QCheck.Gen in
  let* kind = oneofl [ 3; 4; 5; 8 ] in
  let body n = string_size ~gen:char (return n) in
  match kind with
  | 3 -> map (fun b -> "\003\003" ^ b) (body 1)
  | 4 -> return "\004\002"
  | 5 ->
    let* blocks = int_range 1 2 in
    map (fun b -> "\005" ^ String.make 1 (Char.chr (2 + (8 * blocks))) ^ b)
      (body (8 * blocks))
  | _ -> map (fun b -> "\008\010" ^ b) (body 8)

let be16 v = String.init 2 (fun k -> Char.chr ((v lsr (8 * (1 - k))) land 0xFF))
let be32 v = be16 ((v lsr 16) land 0xFFFF) ^ be16 (v land 0xFFFF)

(* [seg]'s header and payload with [opts] as its raw option area, padded
   with EOL to a 4-byte boundary, and a valid checksum. *)
let with_raw_options (seg : Seg.t) opts =
  let opts = opts ^ String.make ((4 - (String.length opts mod 4)) mod 4) '\000' in
  let plain = Wire.encode_tcp ~src_ip:ip_a ~dst_ip:ip_b { seg with options = [] } in
  let hlen = 20 + String.length opts in
  let b = Bytes.make (hlen + String.length seg.payload) '\000' in
  Bytes.blit plain 0 b 0 20;
  Bytes.set b 12 (Char.chr ((hlen / 4) lsl 4));
  Bytes.set b 16 '\000';
  Bytes.set b 17 '\000';
  Bytes.blit_string opts 0 b 20 (String.length opts);
  Bytes.blit_string seg.payload 0 b hlen (String.length seg.payload);
  let word ip = Ipaddr.to_int ip in
  let accum =
    (word ip_a lsr 16) + (word ip_a land 0xFFFF) + (word ip_b lsr 16)
    + (word ip_b land 0xFFFF) + 6 + Bytes.length b
  in
  let ck = Tcpfo_util.Checksum.of_bytes ~accum b in
  Bytes.set b 16 (Char.chr (ck lsr 8));
  Bytes.set b 17 (Char.chr (ck land 0xFF));
  b

type option_case = {
  seg : Seg.t;  (** carries the options the decoder must return *)
  raw : string;  (** [seg]'s options interleaved with foreign ones *)
}

let arb_option_case =
  let open QCheck.Gen in
  let gen =
    let* src_port = int_range 1 65535 in
    let* dst_port = int_range 1 65535 in
    let* seq = int_bound 0xFFFFFFFF in
    let* ack = int_bound 0xFFFFFFFF in
    let* window = int_bound 65535 in
    let* payload = string_size ~gen:char (int_range 0 200) in
    let* syn = bool and* fin = bool and* psh = bool in
    let* with_mss = bool and* with_odst = bool in
    let* mss = int_range 1 65535 in
    let* foreign = list_size (int_range 0 4) gen_foreign_option in
    let known =
      (if with_mss then [ (Some (Seg.Mss mss), "\002\004" ^ be16 mss) ]
       else [])
      @
      if with_odst then
        [ (Some (Seg.Orig_dst ip_c), "\253\006" ^ be32 (Ipaddr.to_int ip_c)) ]
      else []
    in
    (* like a real stack, never exceed the 40-byte option space *)
    let room =
      List.fold_left (fun n (_, r) -> n - String.length r) 40 known
    in
    let foreign, _ =
      List.fold_left
        (fun (acc, left) o ->
          if String.length o <= left then ((None, o) :: acc, left - String.length o)
          else (acc, left))
        ([], room) foreign
    in
    let* pieces = shuffle_l (known @ foreign) in
    return
      {
        (* the decoder reports options in wire order *)
        seg =
          Seg.make
            ~flags:{ Seg.no_flags with syn; fin; psh; ack = true }
            ~ack:(Seq32.of_int ack) ~window
            ~options:(List.filter_map fst pieces)
            ~payload ~src_port ~dst_port ~seq:(Seq32.of_int seq) ();
        raw = String.concat "" (List.map snd pieces);
      }
  in
  QCheck.make gen

let prop_roundtrip =
  QCheck.Test.make ~name:"wire roundtrip preserves segment" ~count:300
    arb_option_case (fun { seg; raw } ->
      let s =
        Wire.decode_tcp ~src_ip:ip_a ~dst_ip:ip_b (with_raw_options seg raw)
      in
      let known = List.filter (fun o -> o <> Seg.Nop) s.options in
      s.src_port = seg.src_port && s.dst_port = seg.dst_port
      && Seq32.equal s.seq seg.seq
      && Seq32.equal s.ack seg.ack
      && s.flags = seg.flags && s.window = seg.window
      && s.payload = seg.payload
      && known = seg.options
      && (* a SACK option whose length (9) overruns the option area *)
      (String.length raw + 2 > 40
      ||
      match
        Wire.decode_tcp ~src_ip:ip_a ~dst_ip:ip_b
          (with_raw_options seg (raw ^ "\005\009"))
      with
      | _ -> false
      | exception Wire.Malformed _ -> true))

let suite =
  [
    Alcotest.test_case "ip address parsing" `Quick test_addr_parse;
    Alcotest.test_case "mac address parsing" `Quick test_mac_parse;
    Alcotest.test_case "network membership" `Quick test_network;
    Alcotest.test_case "tcp encode/decode roundtrip" `Quick
      test_tcp_roundtrip;
    Alcotest.test_case "checksum detects corruption" `Quick
      test_checksum_detects_corruption;
    Alcotest.test_case "checksum binds pseudo-header" `Quick
      test_checksum_binds_pseudo_header;
    Alcotest.test_case "incremental dst rewrite keeps checksum valid"
      `Quick test_rewrite_dst_incremental;
    Alcotest.test_case "option padding" `Quick test_header_length_padding;
    Alcotest.test_case "ipv4 header roundtrip" `Quick
      test_ipv4_header_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
