(* Tests for the dispatcher fleet tier: NAT transparency (byte-exact
   request/response through the translated path), flow pinning, the
   per-shard weight state machine (decay on failure, ramp after
   repair), probe-driven health, and refusal when the whole fleet is
   drained. *)

module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Topo = Tcpfo_host.Topo
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Ipaddr = Tcpfo_packet.Ipaddr
module Replicated = Tcpfo_core.Replicated
module Failover_config = Tcpfo_core.Failover_config
module Dispatch = Tcpfo_dispatch.Dispatch
open Testutil

let port = 7
let reply = pattern ~tag:9 4000
let max_w = Dispatch.default_config.Dispatch.max_weight

type fleet = {
  world : World.t;
  topo : Topo.built;
  disp : Dispatch.t;
  pools : (string * Replicated.t) list;
  client : Host.t;
  service : Ipaddr.t;
}

let make_fleet ?(seed = 11) () =
  let world = World.create ~seed () in
  let gw = "10.0.0.254" in
  let spec =
    [
      Topo.segment "front";
      Topo.segment "back";
      Topo.host ~addr:"10.1.0.10" ~seg:"front" "client";
      Topo.host ~gateway:gw ~addr:"10.0.0.1" ~seg:"back" "s0a";
      Topo.host ~gateway:gw ~addr:"10.0.0.2" ~seg:"back" "s0b";
      Topo.host ~gateway:gw ~addr:"10.0.0.11" ~seg:"back" "s1a";
      Topo.host ~gateway:gw ~addr:"10.0.0.12" ~seg:"back" "s1b";
      Topo.group ~members:[ "s0a"; "s0b" ] "shard0";
      Topo.group ~members:[ "s1a"; "s1b" ] "shard1";
      Topo.service ~seg:"front" ~addr:"10.1.0.1" "fleet";
      Topo.dispatch ~service:"fleet" ~back:gw ~shards:[ "shard0"; "shard1" ]
        "disp";
    ]
  in
  let topo = Topo.build world spec in
  let config = Failover_config.make ~service_ports:[ port ] () in
  let disp, pools = Dispatch.of_topo topo ~name:"disp" ~config () in
  List.iter
    (fun (_, pool) ->
      Replicated.listen pool ~port ~on_accept:(fun ~role:_ tcb ->
          Tcb.set_on_data tcb (fun _ ->
              ignore (Tcb.send tcb reply);
              Tcb.close tcb)))
    pools;
  {
    world;
    topo;
    disp;
    pools;
    client = Topo.host_of topo "client";
    service = Dispatch.service disp;
  }

let connect f =
  let c = Stack.connect (Host.tcp f.client) ~remote:(f.service, port) () in
  let sink = make_sink () in
  wire_sink sink c;
  (* wire_sink installed its own on_established; replace it with one
     that also fires the request *)
  Tcb.set_on_established c (fun () ->
      sink.established <- true;
      ignore (Tcb.send c "get\n"));
  (c, sink)

(* The NAT path end to end: the client speaks only to the fleet address,
   the reply comes back byte-exact, and the flow is pinned to exactly
   one shard. *)
let test_nat_byte_exact_and_pinned () =
  let f = make_fleet () in
  let c, sink = connect f in
  World.run f.world ~for_:(Time.ms 500);
  check_bool "established" true sink.established;
  check_bool "eof" true sink.eof;
  check_int "no resets" 0 sink.resets;
  check_string "reply byte-exact through the NAT" reply (sink_contents sink);
  let client_port = snd (Tcb.local_endpoint c) in
  (match Dispatch.pinned_shard f.disp ~client:(Host.addr f.client, client_port) with
  | Some ("shard0" | "shard1") -> ()
  | Some s -> Alcotest.fail ("pinned to unknown shard " ^ s)
  | None -> Alcotest.fail "flow not pinned");
  let ctr = Dispatch.counters f.disp in
  check_int "one flow routed" 1 ctr.Dispatch.routed;
  check_int "nothing refused" 0 ctr.Dispatch.refused;
  check_int "no isolation drops" 0 ctr.Dispatch.isolation_drops;
  check_bool "probes flowed" true (ctr.Dispatch.probes_sent > 0);
  check_bool "probes answered" true (ctr.Dispatch.probe_replies > 0)

(* Kill the pinned shard's primary mid-connection: the connection must
   survive the §5 takeover through the dispatcher, the victim's weight
   must decay below max while the sibling's never moves, and a repaired
   host must bring the weight back to max/Healthy. *)
let test_weights_decay_and_ramp () =
  let f = make_fleet () in
  let c, sink = connect f in
  World.run f.world ~for_:(Time.ms 2);
  let client_port = snd (Tcb.local_endpoint c) in
  let victim =
    match Dispatch.pinned_shard f.disp ~client:(Host.addr f.client, client_port) with
    | Some s -> s
    | None -> Alcotest.fail "flow not pinned"
  in
  let sibling = if victim = "shard0" then "shard1" else "shard0" in
  let pool = List.assoc victim f.pools in
  Replicated.kill_primary pool;
  World.run f.world ~for_:(Time.ms 100);
  check_bool "victim weight decayed" true (Dispatch.weight f.disp victim < max_w);
  check_int "sibling weight untouched" max_w (Dispatch.weight f.disp sibling);
  check_bool "victim not Healthy" true
    (Dispatch.state f.disp victim <> Dispatch.Healthy);
  check_bool "connection survived the takeover" true sink.eof;
  check_string "stream byte-exact across failover" reply (sink_contents sink);
  check_int "no resets across failover" 0 sink.resets;
  (* repair: fresh host, ARP warmed on both wires, probe responder
     armed, then reintegrate *)
  let back = Topo.segment_of f.topo "back" in
  let h = World.add_host f.world back ~name:"repaired" ~addr:"10.0.0.100" () in
  Host.set_default_via_lan h ~gateway:(Ipaddr.of_string "10.0.0.254");
  World.warm_arp (h :: Topo.group_of f.topo victim);
  Topo.warm_dispatch_arp f.topo "disp" [ h ];
  Dispatch.arm_probe_responder h;
  Replicated.reintegrate pool ~secondary:h;
  World.run f.world ~for_:(Time.ms 200);
  check_int "victim ramped back to max" max_w (Dispatch.weight f.disp victim);
  check_bool "victim Healthy again" true
    (Dispatch.state f.disp victim = Dispatch.Healthy);
  check_bool "weight shifts were counted" true
    ((Dispatch.counters f.disp).Dispatch.shift_transitions > 0)

(* Kill every replica of every shard: probe silence must force both
   weights to 0, and a fresh SYN must be refused (dropped) rather than
   routed into a dead fleet. *)
let test_refused_when_fleet_down () =
  let f = make_fleet () in
  World.run f.world ~for_:(Time.ms 30);
  List.iter
    (fun (_, pool) ->
      Replicated.kill_primary pool;
      Replicated.kill_secondary pool)
    f.pools;
  (* probes every 10 ms, 35 ms timeout: both shards read Down well
     within 100 ms *)
  World.run f.world ~for_:(Time.ms 100);
  check_int "shard0 weight zero" 0 (Dispatch.weight f.disp "shard0");
  check_int "shard1 weight zero" 0 (Dispatch.weight f.disp "shard1");
  check_bool "shard0 Down" true (Dispatch.state f.disp "shard0" = Dispatch.Down);
  let _c, sink = connect f in
  World.run f.world ~for_:(Time.ms 50);
  check_bool "SYN not accepted" false sink.established;
  check_bool "SYN refused" true
    ((Dispatch.counters f.disp).Dispatch.refused > 0)

(* The responder answers a well-formed probe for an address it owns,
   from that address, and counts garbage in [ip.malformed.probe]
   without answering it. *)
let test_garbage_probe_counted () =
  let world = World.create () in
  let lan = World.make_lan world () in
  let r = World.add_host world lan ~name:"r" ~addr:"10.0.0.1" () in
  let d = World.add_host world lan ~name:"d" ~addr:"10.0.0.9" () in
  World.warm_arp [ r; d ];
  Dispatch.arm_probe_responder r;
  let replies = ref [] in
  Tcpfo_ip.Ip_layer.register (Host.ip d) ~proto:Dispatch.probe_proto
    ~name:"probe" ~decode:Option.some (fun ~src:_ m ->
      replies := m :: !replies);
  List.iter
    (fun data ->
      Tcpfo_ip.Ip_layer.send (Host.ip d)
        (Tcpfo_packet.Ipv4_packet.make ~src:(Host.addr d) ~dst:(Host.addr r)
           (Raw { proto = Dispatch.probe_proto; data })))
    [ "probe x y"; "probe 3 10.0.0.1"; "hello"; "ping 4 10.0.0.1";
      "probe 5 10.0.0.77" ];
  World.run world ~for_:(Time.ms 5);
  let counter name =
    Tcpfo_obs.Registry.counter_value (World.metrics world) name
  in
  check_int "garbage counted at the responder" 3
    (counter "host.r.ip.malformed.probe");
  check_bool "only the probe for an owned address answered" true
    (!replies = [ "reply 3 10.0.0.1" ])

let suite =
  [
    Alcotest.test_case "NAT byte-exact and flow pinned" `Quick
      test_nat_byte_exact_and_pinned;
    Alcotest.test_case "weights decay on kill and ramp after repair" `Quick
      test_weights_decay_and_ramp;
    Alcotest.test_case "fleet fully down refuses new flows" `Quick
      test_refused_when_fleet_down;
    Alcotest.test_case "garbage probes are counted, not answered" `Quick
      test_garbage_probe_counted;
  ]
