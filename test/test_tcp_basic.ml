module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Tcp_config = Tcpfo_tcp.Tcp_config
open Testutil

let test_handshake () =
  let lan = make_simple_lan () in
  let server_conn = ref None in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      server_conn := Some tcb);
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp lan.client)
      ~remote:(Host.addr lan.server, 80)
      ()
  in
  wire_sink csink c;
  World.run_until_idle lan.world;
  check_bool "client established" true csink.established;
  check_bool "client state" true (Tcb.state c = Tcb.Established);
  (match !server_conn with
  | Some s -> check_bool "server state" true (Tcb.state s = Tcb.Established)
  | None -> Alcotest.fail "no accept");
  check_bool "no resets" true (csink.resets = 0)

let test_mss_negotiation () =
  let small = { Tcp_config.default with mss = 536 } in
  let world = World.create () in
  let lan_m = World.make_lan world () in
  let client =
    World.add_host world lan_m ~name:"client" ~addr:"10.0.0.10"
      ~tcp_config:small ()
  in
  let server = World.add_host world lan_m ~name:"server" ~addr:"10.0.0.1" () in
  World.warm_arp [ client; server ];
  let server_conn = ref None in
  Stack.listen (Host.tcp server) ~port:80 ~on_accept:(fun tcb ->
      server_conn := Some tcb);
  let c = Stack.connect (Host.tcp client) ~remote:(Host.addr server, 80) () in
  World.run_until_idle world;
  check_int "client side min" 536 (Tcb.effective_mss c);
  (match !server_conn with
  | Some s -> check_int "server side min" 536 (Tcb.effective_mss s)
  | None -> Alcotest.fail "no accept")

let test_rst_to_closed_port () =
  let lan = make_simple_lan () in
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp lan.client)
      ~remote:(Host.addr lan.server, 9999)
      ()
  in
  wire_sink csink c;
  World.run_until_idle lan.world;
  check_bool "reset" true (csink.resets = 1);
  check_bool "never established" false csink.established;
  check_bool "closed" true (Tcb.state c = Tcb.Closed)

let test_small_exchange () =
  let lan = make_simple_lan () in
  let ssink = make_sink () in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      wire_sink ssink tcb;
      Tcb.set_on_data tcb (fun data ->
          Buffer.add_string ssink.buf data;
          ignore (Tcb.send tcb ("echo:" ^ data))));
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "hello"));
  Tcb.set_on_data c (fun data -> Buffer.add_string csink.buf data);
  World.run_until_idle lan.world;
  check_string "server got" "hello" (Buffer.contents ssink.buf);
  check_string "client got" "echo:hello" (Buffer.contents csink.buf)

let test_connect_returns_distinct_ports () =
  let lan = make_simple_lan () in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun _ -> ());
  let c1 =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  let c2 =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  check_bool "ports differ" true
    (snd (Tcb.local_endpoint c1) <> snd (Tcb.local_endpoint c2));
  World.run_until_idle lan.world;
  check_bool "both up" true
    (Tcb.state c1 = Tcb.Established && Tcb.state c2 = Tcb.Established);
  check_int "two conns client side" 2
    (Stack.connection_count (Host.tcp lan.client))

let test_isn_randomized () =
  let lan = make_simple_lan () in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun _ -> ());
  let c1 =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  let c2 =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  check_bool "distinct ISNs" true
    (Tcpfo_util.Seq32.to_int (Tcb.iss c1)
     <> Tcpfo_util.Seq32.to_int (Tcb.iss c2))

let test_syn_retransmission_no_listener_host_down () =
  (* connect to a dead host: SYN retransmits with backoff, then reset *)
  let lan = make_simple_lan () in
  Host.kill lan.server;
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  wire_sink csink c;
  World.run_until_idle lan.world;
  check_bool "gave up with reset" true (csink.resets = 1);
  check_bool "retransmitted" true (Tcb.retransmits c >= 4)

let test_connection_setup_time_plausible () =
  (* sanity check on the latency model: standard TCP connection setup on a
     warm LAN should land in the few-hundred-microsecond range (paper:
     294 us median) *)
  let lan = make_simple_lan () in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun _ -> ());
  let t0 = World.now lan.world in
  let done_at = ref Time.zero in
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  Tcb.set_on_established c (fun () -> done_at := World.now lan.world);
  World.run_until_idle lan.world;
  let dt = !done_at - t0 in
  check_bool "> 50us" true (dt > Time.us 50);
  check_bool "< 1ms" true (dt < Time.ms 1)

(* ---------------------- packed demux key --------------------------- *)

module K = Stack.For_testing

let test_key_roundtrip_edges () =
  (* every corner of each field: intern id 0 / 0x7FFF, port 0 / 65535 *)
  List.iter
    (fun ((lid, lport, rid, rport) as tuple) ->
      let k = K.pack ~lid ~lport ~rid ~rport in
      check_bool "fits 62 bits" true (k >= 0 && k lsr 62 = 0);
      Alcotest.(check (pair (pair int int) (pair int int)))
        "round-trip"
        ((lid, lport), (rid, rport))
        (let a, b, c, d = K.unpack k in
         ((a, b), (c, d)));
      ignore tuple)
    [
      (0, 0, 0, 0);
      (0x7FFF, 65535, 0x7FFF, 65535);
      (0, 65535, 0x7FFF, 0);
      (0x7FFF, 0, 0, 65535);
      (1, 80, 2, 49152);
    ]

let test_key_collision_pairs () =
  (* tuples that collide under naive folds (sums, xors, mirrored roles)
     must pack to distinct keys *)
  let pairs =
    [
      (* mirrored local/remote *)
      ((1, 80, 2, 5000), (2, 5000, 1, 80));
      (* port/id bits swapped across fields *)
      ((1, 2, 3, 4), (2, 1, 4, 3));
      (* differ only in carry position between adjacent fields *)
      ((0, 65535, 0, 0), (1, 0, 0, 0));
      ((0, 0, 0, 65535), (0, 0, 1, 0));
      (* same xor-fold *)
      ((5, 5, 5, 5), (0, 0, 0, 0));
    ]
  in
  List.iter
    (fun ((a1, b1, c1, d1), (a2, b2, c2, d2)) ->
      let k1 = K.pack ~lid:a1 ~lport:b1 ~rid:c1 ~rport:d1 in
      let k2 = K.pack ~lid:a2 ~lport:b2 ~rid:c2 ~rport:d2 in
      check_bool "distinct keys" true (k1 <> k2);
      check_bool "hash deterministic" true (K.hash k1 = K.hash k1))
    pairs

let prop_key_injective =
  QCheck.Test.make ~name:"packed key is injective" ~count:300
    QCheck.(
      pair
        (pair (int_bound 0x7FFF) (int_bound 65535))
        (pair (int_bound 0x7FFF) (int_bound 65535)))
    (fun ((lid, lport), (rid, rport)) ->
      let k = K.pack ~lid ~lport ~rid ~rport in
      K.unpack k = (lid, lport, rid, rport) && K.hash k >= 0)

let test_key_of_matches_demux () =
  (* live traffic demuxes under the key the endpoints pack to, and once
     the connection is a TIME_WAIT record the key is all that is left of
     its endpoints: unpacked, they are the connection's own *)
  let lan = make_simple_lan () in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun s ->
      Tcb.set_on_eof s (fun () -> Tcb.close s));
  let stack = Host.tcp lan.client in
  let c =
    Stack.connect stack ~remote:(Host.addr lan.server, 80) ()
  in
  World.run lan.world ~for_:(Time.ms 10);
  let local = Tcb.local_endpoint c and remote = Tcb.remote_endpoint c in
  (match Stack.find stack ~local ~remote with
  | Some tcb -> check_bool "find returns the connection" true (tcb == c)
  | None -> Alcotest.fail "packed-key find missed");
  check_bool "mem sees it" true (Stack.mem stack ~local ~remote);
  check_bool "mirrored tuple is another key" false
    (Stack.mem stack ~local:remote ~remote:local);
  (* the client closes first, so it is the side left in TIME_WAIT *)
  Tcb.close c;
  World.run lan.world ~for_:(Time.ms 100);
  check_bool "client in TIME_WAIT" true (Tcb.state c = Tcb.Time_wait);
  check_bool "no TCB for find" true (Stack.find stack ~local ~remote = None);
  check_bool "mem still sees it" true (Stack.mem stack ~local ~remote);
  check_int "no TCB listed" 0 (List.length (Stack.connections stack));
  (match Stack.entries stack with
  | [ { Stack.local = l; remote = r; conn = Stack.Time_wait _ } ] ->
    check_bool "endpoints unpacked from the key" true (l = local && r = remote)
  | _ -> Alcotest.fail "expected one TIME_WAIT entry");
  let m = World.metrics lan.world in
  check_bool "demux hits counted" true
    (Tcpfo_obs.Registry.counter_value m "host.client.tcp.demux_hits" > 0);
  check_bool "server demux missed once (the SYN)" true
    (Tcpfo_obs.Registry.counter_value m "host.server.tcp.demux_misses" > 0)

(* Delayed ACKs (RFC 1122 4.2.3.2, as FreeBSD's [TF_DELACK] does it). *)

(* A server on [lan] whose [on_data] runs [f] on the connection; the
   segments the client receives from it, with their arrival instants. *)
let serve lan f =
  let server = ref None in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun s ->
      server := Some s;
      Tcb.set_on_data s (f s));
  let from_server =
    tcp_rx_from lan.world lan.client ~src:(Host.addr lan.server)
  in
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  World.run lan.world ~for_:(Time.ms 10);
  match !server with
  | Some s -> (c, s, from_server)
  | None -> Alcotest.fail "no accept"

let test_reply_carries_the_ack () =
  (* each request is answered from on_data; the reply carries the ACK,
     so it is the only segment the server sends for that request *)
  let lan = make_simple_lan () in
  let c, s, from_server =
    serve lan (fun s data -> ignore (Tcb.send s ("re:" ^ data)))
  in
  let requests = 5 in
  let sent = ref 1 in
  Tcb.set_on_data c (fun _ ->
      if !sent < requests then begin
        incr sent;
        ignore (Tcb.send c "req")
      end);
  let out = Tcb.segments_out s in
  ignore (Tcb.send c "req");
  World.run lan.world ~for_:(Time.ms 250);
  check_int "one segment per request" requests (Tcb.segments_out s - out);
  match List.rev (from_server ()) with
  | (last_reply, _) :: _ as segs ->
    check_int "the SYN-ACK and the replies, no pure ACK" (requests + 1)
      (List.length segs);
    check_bool "nothing in the 200 ms after the last reply" true
      (last_reply <= World.now lan.world - Time.ms 200)
  | [] -> Alcotest.fail "nothing from the server"

let test_silent_service_delays_its_ack () =
  (* a service that does not answer is acked 100 ms after the data *)
  let lan = make_simple_lan () in
  let c, s, from_server = serve lan (fun _ _ -> ()) in
  let to_server = tcp_rx_from lan.world lan.server ~src:(Host.addr lan.client) in
  let out = Tcb.segments_out s in
  ignore (Tcb.send c "hello");
  World.run lan.world ~for_:(Time.ms 300);
  check_int "one ACK" 1 (Tcb.segments_out s - out);
  let data_at =
    match List.filter (fun (_, seg) -> not (pure_ack seg)) (to_server ()) with
    | [ (at, _) ] -> at
    | _ -> Alcotest.fail "expected one data segment"
  in
  match List.rev (from_server ()) with
  | (ack_at, seg) :: _ when pure_ack seg ->
    let delay = ack_at - data_at in
    check_bool "acked 100 ms later" true
      (delay >= Time.ms 100 && delay < Time.ms 101)
  | _ -> Alcotest.fail "no pure ACK from the server"

let test_second_segment_acked_at_once () =
  let lan = make_simple_lan () in
  let c, s, from_server = serve lan (fun _ _ -> ()) in
  let to_server = tcp_rx_from lan.world lan.server ~src:(Host.addr lan.client) in
  let out = Tcb.segments_out s in
  ignore (Tcb.send c "one");
  ignore (Tcb.send c "two");
  World.run lan.world ~for_:(Time.ms 300);
  check_int "one ACK for both segments" 1 (Tcb.segments_out s - out);
  let second_at =
    match List.filter (fun (_, seg) -> not (pure_ack seg)) (to_server ()) with
    | [ _; (at, _) ] -> at
    | _ -> Alcotest.fail "expected two data segments"
  in
  match List.rev (from_server ()) with
  | (ack_at, seg) :: _ when pure_ack seg ->
    check_bool "acked at once" true (ack_at - second_at < Time.ms 1);
    check_bool "acks both" true
      (Tcpfo_util.Seq32.equal seg.ack (Tcb.snd_nxt c))
  | _ -> Alcotest.fail "no pure ACK from the server"

let suite =
  [
    Alcotest.test_case "three-way handshake" `Quick test_handshake;
    Alcotest.test_case "MSS negotiation picks minimum" `Quick
      test_mss_negotiation;
    Alcotest.test_case "RST for closed port" `Quick test_rst_to_closed_port;
    Alcotest.test_case "small request/reply exchange" `Quick
      test_small_exchange;
    Alcotest.test_case "ephemeral ports distinct" `Quick
      test_connect_returns_distinct_ports;
    Alcotest.test_case "ISNs randomized" `Quick test_isn_randomized;
    Alcotest.test_case "SYN retransmits then gives up" `Quick
      test_syn_retransmission_no_listener_host_down;
    Alcotest.test_case "connection setup time plausible" `Quick
      test_connection_setup_time_plausible;
    Alcotest.test_case "packed key round-trip at edges" `Quick
      test_key_roundtrip_edges;
    Alcotest.test_case "packed key collision pairs" `Quick
      test_key_collision_pairs;
    Alcotest.test_case "packed key matches live demux" `Quick
      test_key_of_matches_demux;
    QCheck_alcotest.to_alcotest prop_key_injective;
    Alcotest.test_case "a reply from on_data is the request's only segment"
      `Quick test_reply_carries_the_ack;
    Alcotest.test_case "a silent service acks 100 ms after the data" `Quick
      test_silent_service_delays_its_ack;
    Alcotest.test_case "the second in-order segment is acked at once" `Quick
      test_second_segment_acked_at_once;
  ]
