module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Ip_layer = Tcpfo_ip.Ip_layer
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Medium = Tcpfo_net.Medium
open Testutil

(* Install an rx filter on [host] that drops packets matching [pred], up
   to [count] times. *)
let drop_incoming host ~count ~pred =
  let remaining = ref count in
  Ip_layer.set_rx_hook (Host.ip host)
    (Some
       (fun pkt ~link_addressed:_ ->
         if !remaining > 0 && pred pkt then begin
           decr remaining;
           Ip_layer.Rx_drop
         end
         else Ip_layer.Rx_pass pkt));
  remaining

let is_tcp_data (pkt : Ipv4_packet.t) =
  match pkt.payload with
  | Tcp seg -> String.length seg.payload > 0
  | Raw _ -> false

let is_tcp_ack_only (pkt : Ipv4_packet.t) =
  match pkt.payload with
  | Tcp seg ->
    String.length seg.payload = 0
    && seg.flags.ack && (not seg.flags.syn) && not seg.flags.fin
  | Raw _ -> false

let is_syn (pkt : Ipv4_packet.t) =
  match pkt.payload with
  | Tcp seg -> seg.flags.syn
  | Raw _ -> false

let setup_transfer ?tcp_config data =
  let lan = make_simple_lan ?tcp_config () in
  let ssink = make_sink () in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      wire_sink ssink tcb);
  let connect () =
    let c =
      Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80)
        ()
    in
    Tcb.set_on_established c (fun () -> send_all ~close:true c data);
    c
  in
  (lan, ssink, connect)

let test_lost_data_segment_retransmitted () =
  let data = pattern ~tag:1 8000 in
  let lan, ssink, connect = setup_transfer data in
  let _ = drop_incoming lan.server ~count:1 ~pred:is_tcp_data in
  let c = connect () in
  World.run_until_idle lan.world;
  check_string "healed" data (sink_contents ssink);
  check_bool "retransmitted" true (Tcb.retransmits c >= 1)

let test_lost_syn () =
  let data = pattern ~tag:2 500 in
  let lan, ssink, connect = setup_transfer data in
  let _ = drop_incoming lan.server ~count:1 ~pred:is_syn in
  let t0 = World.now lan.world in
  let c = connect () in
  World.run_until_idle lan.world;
  check_string "established after syn loss" data (sink_contents ssink);
  check_bool "syn retransmitted" true (Tcb.retransmits c >= 1);
  (* initial RTO is 1 s: the recovery should have taken at least that *)
  check_bool "waited an RTO" true (World.now lan.world - t0 >= Time.sec 1.0)

let test_lost_synack () =
  let data = pattern ~tag:3 500 in
  let lan, ssink, connect = setup_transfer data in
  (* drop the SYN-ACK arriving at the client *)
  let _ = drop_incoming lan.client ~count:1 ~pred:is_syn in
  let _c = connect () in
  World.run_until_idle lan.world;
  check_string "established after synack loss" data (sink_contents ssink)

let test_lost_ack_recovered_by_later_acks () =
  (* pure ACK loss during bulk flow is masked by cumulative acks *)
  let data = pattern ~tag:4 60_000 in
  let lan, ssink, connect = setup_transfer data in
  let _ = drop_incoming lan.client ~count:5 ~pred:is_tcp_ack_only in
  let _c = connect () in
  World.run_until_idle lan.world;
  check_string "unharmed" data (sink_contents ssink)

let test_fast_retransmit_on_dupacks () =
  let data = pattern ~tag:5 120_000 in
  let lan, ssink, connect = setup_transfer data in
  let _ = drop_incoming lan.server ~count:1 ~pred:is_tcp_data in
  let t0 = World.now lan.world in
  let c = connect () in
  World.run_until_idle lan.world;
  check_string "healed" data (sink_contents ssink);
  check_bool "recovered" true (Tcb.retransmits c >= 1);
  (* with fast retransmit the whole 120 KB must finish well below the
     1-second initial RTO *)
  check_bool "no RTO stall" true (World.now lan.world - t0 < Time.ms 500)

let test_random_loss_both_directions () =
  let data = pattern ~tag:6 150_000 in
  let medium_config = { Medium.default_config with loss_prob = 0.02 } in
  let lan = make_simple_lan ~medium_config () in
  let ssink = make_sink () in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      wire_sink ssink tcb;
      Tcb.set_on_established tcb (fun () ->
          send_all ~close:true tcb (pattern ~tag:7 90_000)));
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> send_all ~close:true c data);
  World.run_until_idle lan.world;
  check_string "c->s heals under loss" data (sink_contents ssink);
  check_string "s->c heals under loss" (pattern ~tag:7 90_000)
    (sink_contents csink)

let test_rto_backoff_exponential () =
  (* server dies mid-transfer: client retransmission intervals grow *)
  let data = pattern ~tag:8 200_000 in
  let lan, _ssink, connect = setup_transfer data in
  let c = connect () in
  let resets = ref 0 in
  Tcb.set_on_reset c (fun () -> incr resets);
  ignore
    ((Host.clock lan.client).schedule (Time.ms 10) (fun () ->
         Host.kill lan.server));
  World.run_until_idle lan.world;
  check_bool "eventually reset" true (!resets = 1);
  check_bool "many retransmits" true (Tcb.retransmits c >= 5);
  (* cumulative backoff: must have taken dozens of seconds *)
  check_bool "took a long time" true (World.now lan.world > Time.sec 30.0)

let test_zero_window_persist () =
  (* receiver stops consuming: peer's window closes; sender probes and the
     transfer completes once reads resume. We emulate a slow reader by a
     tiny receive buffer. *)
  let small_rcv =
    { Tcpfo_tcp.Tcp_config.default with recv_buf_size = 2000 }
  in
  let data = pattern ~tag:9 30_000 in
  let lan, ssink, connect = setup_transfer ~tcp_config:small_rcv data in
  let _c = connect () in
  World.run_until_idle lan.world;
  check_string "completes despite tiny window" data (sink_contents ssink)

let suite =
  [
    Alcotest.test_case "lost data segment retransmitted" `Quick
      test_lost_data_segment_retransmitted;
    Alcotest.test_case "lost SYN" `Quick test_lost_syn;
    Alcotest.test_case "lost SYN-ACK" `Quick test_lost_synack;
    Alcotest.test_case "lost pure ACKs masked" `Quick
      test_lost_ack_recovered_by_later_acks;
    Alcotest.test_case "fast retransmit on dupacks" `Quick
      test_fast_retransmit_on_dupacks;
    Alcotest.test_case "random loss both directions heals" `Quick
      test_random_loss_both_directions;
    Alcotest.test_case "RTO backoff until reset" `Quick
      test_rto_backoff_exponential;
    Alcotest.test_case "tiny receive window still completes" `Quick
      test_zero_window_persist;
  ]
