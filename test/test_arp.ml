module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Ipaddr = Tcpfo_packet.Ipaddr
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Ip_layer = Tcpfo_ip.Ip_layer
module Eth_iface = Tcpfo_ip.Eth_iface
module Arp_cache = Tcpfo_ip.Arp_cache
module Nic = Tcpfo_net.Nic

let mk_world () =
  let world = World.create () in
  let lan = World.make_lan world () in
  let a = World.add_host world lan ~name:"a" ~addr:"10.0.0.1" () in
  let b = World.add_host world lan ~name:"b" ~addr:"10.0.0.2" () in
  (world, a, b)

let send_raw host ~dst =
  Ip_layer.send (Host.ip host)
    (Ipv4_packet.make ~src:(Host.addr host) ~dst:(Ipaddr.of_string dst)
       (Ipv4_packet.Raw { proto = 77; data = "ping" }))

(* Hand every proto-[proto] datagram [host] receives to [f]. *)
let on_raw ?(proto = 77) host f =
  Ip_layer.register (Host.ip host) ~proto ~name:"test" ~decode:Option.some f

let test_resolution_and_delivery () =
  let world, a, b = mk_world () in
  let got = ref 0 in
  on_raw b (fun ~src:_ _ -> incr got);
  (* cold cache: the datagram must trigger ARP, wait, then be delivered *)
  send_raw a ~dst:"10.0.0.2";
  World.run_until_idle world;
  Testutil.check_int "delivered after ARP" 1 !got;
  (* and the binding is now cached both ways (b learned from the request) *)
  let cache_a = Eth_iface.arp_cache (Host.eth a) in
  let cache_b = Eth_iface.arp_cache (Host.eth b) in
  Testutil.check_bool "a cached b" true
    (Arp_cache.lookup cache_a (Host.addr b) <> None);
  Testutil.check_bool "b cached a" true
    (Arp_cache.lookup cache_b (Host.addr a) <> None)

let test_queued_while_resolving () =
  let world, a, b = mk_world () in
  let got = ref 0 in
  on_raw b (fun ~src:_ _ -> incr got);
  send_raw a ~dst:"10.0.0.2";
  send_raw a ~dst:"10.0.0.2";
  send_raw a ~dst:"10.0.0.2";
  World.run_until_idle world;
  Testutil.check_int "all three delivered" 3 !got

let test_unresolvable_dropped () =
  let world, a, _b = mk_world () in
  send_raw a ~dst:"10.0.0.99";
  World.run_until_idle world;
  (* three retries, a second apart, then give up: no crash, nothing
     delivered, simulation drains *)
  Testutil.check_bool "time advanced past retries" true
    (World.now world >= Time.sec 2.0)

let test_gratuitous_arp_rebinds () =
  let world, a, b = mk_world () in
  World.warm_arp [ a; b ];
  let cache_a = Eth_iface.arp_cache (Host.eth a) in
  let mac_b = Nic.mac (Eth_iface.nic (Host.eth b)) in
  (* b takes over 10.0.0.50 and announces it *)
  Eth_iface.add_address (Host.eth b) (Ipaddr.of_string "10.0.0.50");
  World.run_until_idle world;
  (match Arp_cache.lookup cache_a (Ipaddr.of_string "10.0.0.50") with
  | Some m -> Testutil.check_bool "bound to b" true (m = mac_b)
  | None -> Alcotest.fail "gratuitous ARP not learned");
  (* traffic to the alias reaches b *)
  let got = ref 0 in
  on_raw b (fun ~src:_ _ -> incr got);
  send_raw a ~dst:"10.0.0.50";
  World.run_until_idle world;
  Testutil.check_int "alias reachable" 1 !got

let test_takeover_rebinding_after_death () =
  (* The IP-takeover core: c talks to p; p dies; s assumes p's address; c's
     next datagrams flow to s after the gratuitous ARP. *)
  let world = World.create () in
  let lan = World.make_lan world () in
  let c = World.add_host world lan ~name:"c" ~addr:"10.0.0.10" () in
  let p = World.add_host world lan ~name:"p" ~addr:"10.0.0.1" () in
  let s = World.add_host world lan ~name:"s" ~addr:"10.0.0.2" () in
  World.warm_arp [ c; p; s ];
  let at_p = ref 0 and at_s = ref 0 in
  on_raw p (fun ~src:_ _ -> incr at_p);
  on_raw s (fun ~src:_ _ -> incr at_s);
  send_raw c ~dst:"10.0.0.1";
  World.run_until_idle world;
  Testutil.check_int "p got it" 1 !at_p;
  Host.kill p;
  Eth_iface.add_address (Host.eth s) (Ipaddr.of_string "10.0.0.1");
  World.run_until_idle world;
  send_raw c ~dst:"10.0.0.1";
  World.run_until_idle world;
  Testutil.check_int "p unchanged" 1 !at_p;
  Testutil.check_int "s received takeover traffic" 1 !at_s

let test_forwarding_router () =
  (* wan client -> router -> lan host *)
  let world = World.create () in
  let lan = World.make_lan world () in
  let wan =
    Tcpfo_net.Link.create (World.engine world)
      ~rng:(World.fresh_rng world) Tcpfo_net.Link.default_config
  in
  let server = World.add_host world lan ~name:"srv" ~addr:"10.0.0.1" () in
  let router =
    World.add_router world lan ~lan_addr:"10.0.0.254" ~wan_link:wan
      ~wan_addr:"192.168.0.1" ()
  in
  let client = World.add_wan_client world ~wan_link:wan ~addr:"192.168.0.2" () in
  (* server needs a route back to the WAN client *)
  Host.set_default_via_lan server ~gateway:(Ipaddr.of_string "10.0.0.254");
  ignore router;
  let got = ref 0 in
  on_raw server (fun ~src _ ->
      incr got;
      (* reply back across the router *)
      if !got = 1 then
        Ip_layer.send (Host.ip server)
          (Ipv4_packet.make ~src:(Host.addr server) ~dst:src
             (Ipv4_packet.Raw { proto = 78; data = "pong" })));
  let ponged = ref 0 in
  on_raw ~proto:78 client (fun ~src:_ _ -> incr ponged);
  send_raw client ~dst:"10.0.0.1";
  World.run_until_idle world;
  Testutil.check_int "forwarded to lan" 1 !got;
  Testutil.check_int "reply forwarded back" 1 !ponged

let suite =
  [
    Alcotest.test_case "cold-cache resolution and delivery" `Quick
      test_resolution_and_delivery;
    Alcotest.test_case "datagrams queued during resolution" `Quick
      test_queued_while_resolving;
    Alcotest.test_case "unresolvable address gives up" `Quick
      test_unresolvable_dropped;
    Alcotest.test_case "gratuitous ARP rebinds alias" `Quick
      test_gratuitous_arp_rebinds;
    Alcotest.test_case "IP takeover after host death" `Quick
      test_takeover_rebinding_after_death;
    Alcotest.test_case "router forwards both ways" `Quick
      test_forwarding_router;
  ]
