module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module Rng = Tcpfo_util.Rng
module Medium = Tcpfo_net.Medium
module Nic = Tcpfo_net.Nic
module Eth_frame = Tcpfo_packet.Eth_frame
module Macaddr = Tcpfo_packet.Macaddr
module Ipaddr = Tcpfo_packet.Ipaddr
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Obs = Tcpfo_obs.Obs
module Registry = Tcpfo_obs.Registry
module Cpu = Tcpfo_sim.Cpu
module Eth_iface = Tcpfo_ip.Eth_iface
module Ip_layer = Tcpfo_ip.Ip_layer

let mk_frame ~src ~dst n =
  Eth_frame.make ~src:(Macaddr.of_int src) ~dst:(Macaddr.of_int dst)
    (Eth_frame.Ip
       (Ipv4_packet.make ~src:(Ipaddr.of_int 1) ~dst:(Ipaddr.of_int 2)
          (Ipv4_packet.Raw { proto = 200; data = String.make n 'x' })))

let setup ?(config = Medium.default_config) () =
  let e = Engine.create () in
  let obs = Obs.create () in
  let m = Medium.create e ~rng:(Rng.create ~seed:11) ~obs config in
  (e, m, obs)

let collisions obs = Registry.counter_value (Obs.metrics obs) "medium.collisions"

let test_broadcast_semantics () =
  (* hub: every other station sees the frame, the sender does not *)
  let e, m, _ = setup () in
  let got = Array.make 3 0 in
  let ports =
    Array.init 3 (fun i ->
        Medium.attach m ~deliver:(fun _ -> got.(i) <- got.(i) + 1))
  in
  Medium.transmit m ports.(0) (mk_frame ~src:1 ~dst:2 100);
  Engine.run e;
  Alcotest.(check (array int)) "all but sender" [| 0; 1; 1 |] got

let test_serialization_time () =
  let e, m, _ = setup () in
  let arrival = ref Time.zero in
  let _p0 = Medium.attach m ~deliver:(fun _ -> ()) in
  let _p1 = Medium.attach m ~deliver:(fun _ -> arrival := Engine.now e) in
  let p2 = Medium.attach m ~deliver:(fun _ -> ()) in
  (* 1000-byte raw payload: wire = 14 + 20 + 1000 + 4 = 1038; +20
     preamble/IFG = 1058 bytes = 8464 bits @100Mb/s = 84.64 us, +1 us
     propagation *)
  Medium.transmit m p2 (mk_frame ~src:3 ~dst:1 1000);
  Engine.run e;
  Testutil.check_int "arrival time" (Time.ns 85_640) !arrival

let test_delivery_orders_with_timers () =
  (* a delivery is one engine event, scheduled when the frame starts on
     the wire: a timer set for the frame's arrival instant before
     [transmit] fires first, one set after [transmit] fires after it *)
  let e, m, _ = setup () in
  let log = ref [] in
  let note what () = log := (what, Engine.now e) :: !log in
  let _p0 = Medium.attach m ~deliver:(fun _ -> note "frame" ()) in
  let p1 = Medium.attach m ~deliver:(fun _ -> ()) in
  (* same 1000-byte frame as above: arrives at 85.64 us *)
  let arrival = Time.ns 85_640 in
  ignore (Engine.schedule_at e ~at:arrival (note "before"));
  Medium.transmit m p1 (mk_frame ~src:2 ~dst:1 1000);
  ignore (Engine.schedule_at e ~at:arrival (note "after"));
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "scheduling order at one instant"
    [ ("before", arrival); ("frame", arrival); ("after", arrival) ]
    (List.rev !log)

let test_fifo_when_busy () =
  let e, m, obs = setup () in
  let log = ref [] in
  let p0 =
    Medium.attach m ~deliver:(fun f ->
        log := Macaddr.to_int f.Eth_frame.src :: !log)
  in
  ignore p0;
  let p1 = Medium.attach m ~deliver:(fun _ -> ()) in
  let p2 = Medium.attach m ~deliver:(fun _ -> ()) in
  (* p1 transmits; while busy, p2 queues; no collision since p2 defers *)
  Medium.transmit m p1 (mk_frame ~src:11 ~dst:1 500);
  ignore
    (Engine.schedule e ~delay:(Time.us 5) (fun () ->
         Medium.transmit m p2 (mk_frame ~src:22 ~dst:1 500)));
  Engine.run e;
  Alcotest.(check (list int)) "both delivered in order" [ 11; 22 ]
    (List.rev !log);
  Testutil.check_int "no collisions" 0 (collisions obs)

let test_collision_backoff_resolves () =
  let e, m, obs =
    setup ~config:{ Medium.default_config with collision_prob = 1.0 } ()
  in
  let received = ref 0 in
  let _sink = Medium.attach m ~deliver:(fun _ -> incr received) in
  let p1 = Medium.attach m ~deliver:(fun _ -> ()) in
  let p2 = Medium.attach m ~deliver:(fun _ -> ()) in
  let p3 = Medium.attach m ~deliver:(fun _ -> ()) in
  (* all three want the wire while it is busy -> contention at idle *)
  Medium.transmit m p1 (mk_frame ~src:1 ~dst:9 800);
  Medium.transmit m p2 (mk_frame ~src:2 ~dst:9 800);
  Medium.transmit m p3 (mk_frame ~src:3 ~dst:9 800);
  Engine.run e;
  Testutil.check_int "all delivered eventually" 3 !received;
  Testutil.check_bool "collisions occurred" true (collisions obs > 0)

let test_collisions_disabled () =
  let e, m, obs =
    setup ~config:{ Medium.default_config with enable_collisions = false } ()
  in
  let received = ref 0 in
  let _sink = Medium.attach m ~deliver:(fun _ -> incr received) in
  let p1 = Medium.attach m ~deliver:(fun _ -> ()) in
  let p2 = Medium.attach m ~deliver:(fun _ -> ()) in
  Medium.transmit m p1 (mk_frame ~src:1 ~dst:9 100);
  Medium.transmit m p2 (mk_frame ~src:2 ~dst:9 100);
  Medium.transmit m p1 (mk_frame ~src:1 ~dst:9 100);
  Engine.run e;
  Testutil.check_int "all delivered" 3 !received;
  Testutil.check_int "no collisions" 0 (collisions obs)

let test_detach_stops_delivery () =
  let e, m, _ = setup () in
  let got = ref 0 in
  let p0 = Medium.attach m ~deliver:(fun _ -> incr got) in
  let p1 = Medium.attach m ~deliver:(fun _ -> ()) in
  Medium.transmit m p1 (mk_frame ~src:2 ~dst:1 50);
  Engine.run e;
  Testutil.check_int "first arrives" 1 !got;
  Medium.detach m p0;
  Medium.transmit m p1 (mk_frame ~src:2 ~dst:1 50);
  Engine.run e;
  Testutil.check_int "after detach" 1 !got

let test_random_loss () =
  let e, m, _ =
    setup ~config:{ Medium.default_config with loss_prob = 0.5 } ()
  in
  let got = ref 0 in
  let _p0 = Medium.attach m ~deliver:(fun _ -> incr got) in
  let p1 = Medium.attach m ~deliver:(fun _ -> ()) in
  let n = 200 in
  for i = 0 to n - 1 do
    ignore
      (Engine.schedule e ~delay:(Time.us (i * 200)) (fun () ->
           Medium.transmit m p1 (mk_frame ~src:2 ~dst:1 50)))
  done;
  Engine.run e;
  Testutil.check_bool "some lost" true (!got < n);
  Testutil.check_bool "some arrive" true (!got > n / 4)

let test_nic_promiscuous () =
  let e, m, _ = setup () in
  let normal = ref 0 and promisc = ref 0 in
  let nic1 = Nic.create e ~mac:(Macaddr.of_int 0x111) m in
  let nic2 = Nic.create e ~mac:(Macaddr.of_int 0x222) m in
  let nic3 = Nic.create e ~mac:(Macaddr.of_int 0x333) m in
  Nic.set_rx nic2 (fun _ ~addressed_to_me -> if addressed_to_me then incr normal);
  Nic.set_rx nic3 (fun _ ~addressed_to_me ->
      if not addressed_to_me then incr promisc);
  (* frame to nic2's MAC: nic3 sees nothing until promiscuous *)
  Nic.send nic1 ~dst:(Macaddr.of_int 0x222)
    (mk_frame ~src:0x111 ~dst:0x222 10).Eth_frame.payload;
  Engine.run e;
  Testutil.check_int "unicast received" 1 !normal;
  Testutil.check_int "not snooped yet" 0 !promisc;
  Nic.set_promiscuous nic3 true;
  Nic.send nic1 ~dst:(Macaddr.of_int 0x222)
    (mk_frame ~src:0x111 ~dst:0x222 10).Eth_frame.payload;
  Engine.run e;
  Testutil.check_int "snooped" 1 !promisc

(* A snooping host on a segment with traffic between two other stations:
   [snoop] names the address its interface snoops for (None: promiscuous
   mode off), and the sender puts two frames from IP [src] (default a
   third host) for IP [dst] on the wire to a third MAC.  The host's IP
   layer costs 45 us per frame plus 7 us of jitter. *)
type snoop_run = {
  processed : int; (* engine events, whole run *)
  nic_rx : int;
  hooked : int; (* datagrams the rx hook saw *)
  draws : int; (* jitter draws *)
  arrivals : Time.t list; (* when each frame reached the segment's ports *)
  cpu : Cpu.t;
}

let snoop_run ?(src = Ipaddr.of_string "10.0.0.9") ~snoop ~dst () =
  let e, m, obs = setup () in
  let clock = Testutil.host_clock e in
  let sender = Nic.create e ~mac:(Macaddr.of_int 0x111) m in
  let nic = Nic.create e ~mac:(Macaddr.of_int 0x333) ~obs m in
  let eth =
    Eth_iface.create clock ~nic ~addr:(Ipaddr.of_string "10.0.0.3")
      ~prefix:24 ()
  in
  let draws = ref 0 in
  let ip =
    Ip_layer.create clock ~name:"snooper" ~rx_cost:(Time.us 45)
      ~jitter:(fun () -> incr draws; Time.us 7) ()
  in
  ignore (Ip_layer.add_eth_iface ip eth);
  let hooked = ref 0 in
  Ip_layer.set_rx_hook ip
    (Some (fun pkt ~link_addressed:_ -> incr hooked; Ip_layer.Rx_pass pkt));
  Eth_iface.set_promiscuous eth snoop;
  let arrivals = ref [] in
  ignore (Medium.attach m ~deliver:(fun _ -> arrivals := Engine.now e :: !arrivals));
  for _ = 1 to 2 do
    Nic.send sender ~dst:(Macaddr.of_int 0x222)
      (Eth_frame.Ip
         (Ipv4_packet.make ~src ~dst
            (Ipv4_packet.Raw { proto = 200; data = String.make 10 'x' })))
  done;
  Engine.run e;
  { processed = Engine.processed e;
    nic_rx = Registry.counter_value (Obs.metrics obs) "nic.rx";
    hooked = !hooked; draws = !draws; arrivals = List.rev !arrivals;
    cpu = Ip_layer.cpu ip }

let test_snooped_foreign_frame_costs_only_from_service () =
  let service = Ipaddr.of_string "10.0.0.1"
  and third = Ipaddr.of_string "10.0.0.2" in
  let off = snoop_run ~snoop:None ~dst:third () in
  Testutil.check_int "not captured when not promiscuous" 0 off.nic_rx;
  Testutil.check_int "idle cpu" 0 (Cpu.total_busy off.cpu);
  (* snooping the service address: frames between two third hosts are
     captured by the NIC, but the interface's filter drops them before
     they cost anything *)
  let foreign = snoop_run ~snoop:(Some service) ~dst:third () in
  Testutil.check_int "nic counts both frames" 2 foreign.nic_rx;
  Testutil.check_int "no jitter draw" 0 foreign.draws;
  Testutil.check_int "no hook sees them" 0 foreign.hooked;
  Testutil.check_int "no events beyond the medium's" off.processed
    foreign.processed;
  Testutil.check_int "idle cpu when snooping" 0 (Cpu.total_busy foreign.cpu);
  (* the same frames sent from the snooped address (the service's own
     outbound traffic) pass the filter and cost receive time, queued FIFO
     as any other work, but schedule no event and reach no hook *)
  let outbound = snoop_run ~src:service ~snoop:(Some service) ~dst:third () in
  Testutil.check_int "nic counts both outbound" 2 outbound.nic_rx;
  Testutil.check_int "one jitter draw per frame" 2 outbound.draws;
  Testutil.check_int "no hook sees outbound" 0 outbound.hooked;
  Testutil.check_int "no events for outbound" off.processed
    outbound.processed;
  Testutil.check_int "total busy" (Time.us 104) (Cpu.total_busy outbound.cpu);
  let first = List.hd outbound.arrivals in
  Testutil.check_bool "second frame queues behind the first" true
    (List.nth outbound.arrivals 1 < first + Time.us 52);
  Testutil.check_int "busy until" (first + Time.us 104)
    (Cpu.busy_until outbound.cpu);
  (* the same frames addressed to the snooped address are processed: one
     event each, and the hook sees them *)
  let snooped = snoop_run ~snoop:(Some service) ~dst:service () in
  Testutil.check_int "hook sees both" 2 snooped.hooked;
  Testutil.check_int "one event per frame" (off.processed + 2)
    snooped.processed;
  Testutil.check_int "same cpu charge" (Cpu.busy_until outbound.cpu)
    (Cpu.busy_until snooped.cpu)

let suite =
  [
    Alcotest.test_case "hub broadcast semantics" `Quick
      test_broadcast_semantics;
    Alcotest.test_case "serialization + propagation timing" `Quick
      test_serialization_time;
    Alcotest.test_case "delivery vs timers at the arrival instant" `Quick
      test_delivery_orders_with_timers;
    Alcotest.test_case "busy medium: FIFO, no collision" `Quick
      test_fifo_when_busy;
    Alcotest.test_case "collision backoff resolves" `Quick
      test_collision_backoff_resolves;
    Alcotest.test_case "collisions disabled" `Quick test_collisions_disabled;
    Alcotest.test_case "detach stops delivery" `Quick
      test_detach_stops_delivery;
    Alcotest.test_case "random loss" `Quick test_random_loss;
    Alcotest.test_case "nic promiscuous mode" `Quick test_nic_promiscuous;
    Alcotest.test_case "snooped frame for a third host: cpu only from the service"
      `Quick test_snooped_foreign_frame_costs_only_from_service;
  ]
