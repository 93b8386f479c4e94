(* The control-plane channel: every raw IP protocol a host consumes is
   one registration in its IP layer's table (heartbeats 253, hot state
   transfer 254, dispatcher probes 252).  One owner per protocol, order
   of registration irrelevant, malformed datagrams counted per protocol
   and unregistered protocols dropped uncounted. *)

module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Ipaddr = Tcpfo_packet.Ipaddr
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Ip_layer = Tcpfo_ip.Ip_layer
module Registry = Tcpfo_obs.Registry
module Heartbeat = Tcpfo_core.Heartbeat
module Failover_config = Tcpfo_core.Failover_config
module Transfer = Tcpfo_statex.Transfer
module Dispatch = Tcpfo_dispatch.Dispatch
open Testutil

let hb_config =
  Failover_config.make ~heartbeat_period:(Time.ms 10)
    ~detector_timeout:(Time.ms 30) ()

let counter world name = Registry.counter_value (World.metrics world) name

let send_raw src ~dst ~proto data =
  Ip_layer.send (Host.ip src)
    (Ipv4_packet.make ~src:(Host.addr src) ~dst:(Host.addr dst)
       (Raw { proto; data }))

(* every [ip.malformed.*] counter in the world, with its value *)
let malformed world =
  let reg = World.metrics world in
  List.filter_map
    (fun name ->
      let v = Registry.counter_value reg name in
      match String.split_on_char '.' name with
      | [ "host"; _; "ip"; "malformed"; _ ] -> Some (name, v)
      | _ -> None)
    (Registry.names reg)

let test_register_twice_raises () =
  let world = World.create () in
  let lan = World.make_lan world () in
  let a = World.add_host world lan ~name:"a" ~addr:"10.0.0.1" () in
  let b = World.add_host world lan ~name:"b" ~addr:"10.0.0.2" () in
  let reg host =
    Ip_layer.register (Host.ip host) ~proto:77 ~name:"test"
      ~decode:Option.some (fun ~src:_ _ -> ())
  in
  reg a;
  reg b;
  (match reg a with
  | () -> Alcotest.fail "second registration of proto 77 accepted"
  | exception Invalid_argument _ -> ());
  ignore (Transfer.attach a);
  (match Transfer.attach a with
  | _ -> Alcotest.fail "second statex endpoint on one host accepted"
  | exception Invalid_argument _ -> ());
  Dispatch.arm_probe_responder b;
  (match Dispatch.arm_probe_responder b with
  | () -> Alcotest.fail "second probe responder on one host accepted"
  | exception Invalid_argument _ -> ());
  (* heartbeat watchers share their host's one registration *)
  let watch () =
    ignore
      (Heartbeat.start a ~peer:(Host.addr b) ~role:`Primary ~config:hb_config
         ~on_peer_failure:ignore)
  in
  watch ();
  watch ()

(* One host pair with statex, a probe responder and a heartbeat pair,
   registered in [order]; a third host probes both and sends garbage on
   every protocol.  Returns everything observable: the full metrics
   snapshot, the detection instant and the probe replies seen. *)
let run_with_order order =
  let world = World.create () in
  let lan = World.make_lan world () in
  let a = World.add_host world lan ~name:"a" ~addr:"10.0.0.1" () in
  let b = World.add_host world lan ~name:"b" ~addr:"10.0.0.2" () in
  let d = World.add_host world lan ~name:"d" ~addr:"10.0.0.9" () in
  World.warm_arp [ a; b; d ];
  let detected = ref None in
  let register host = function
    | `Statex -> ignore (Transfer.attach host)
    | `Probes -> Dispatch.arm_probe_responder host
    | `Heartbeats ->
      let peer, role = if host == a then (b, `Primary) else (a, `Secondary) in
      ignore
        (Heartbeat.start host ~peer:(Host.addr peer) ~role ~config:hb_config
           ~on_peer_failure:(fun () ->
             if host == a then detected := Some (World.now world)))
  in
  List.iter (fun host -> List.iter (register host) order) [ a; b ];
  let replies = ref [] in
  Ip_layer.register (Host.ip d) ~proto:Dispatch.probe_proto ~name:"probe"
    ~decode:Option.some (fun ~src m ->
      replies := (Ipaddr.to_string src, m) :: !replies);
  World.run world ~for_:(Time.ms 50);
  send_raw d ~dst:a ~proto:Dispatch.probe_proto "probe 1 10.0.0.1";
  send_raw d ~dst:b ~proto:Dispatch.probe_proto "probe 2 10.0.0.2";
  send_raw d ~dst:b ~proto:Dispatch.probe_proto "probe x y";
  send_raw d ~dst:b ~proto:Transfer.proto "not a sealed msg";
  send_raw d ~dst:a ~proto:Heartbeat.proto "junk";
  (* a one-chunk transfer whose image does not decode: b rejects it *)
  send_raw d ~dst:b ~proto:Transfer.proto
    (Transfer.encode
       [ Chunk { xfer_id = 1; seq = 0; total = 1; data = "garbage" } ]);
  World.run world ~for_:(Time.ms 50);
  Host.kill b;
  World.run world ~for_:(Time.ms 200);
  (Registry.to_json (World.metrics world), !detected, List.rev !replies,
   world)

let test_registration_order_irrelevant () =
  let services = [ `Statex; `Probes; `Heartbeats ] in
  let rec perms = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
        l
  in
  let orders = perms services in
  check_int "all six orders" 6 (List.length orders);
  let ref_json, ref_detected, ref_replies, world =
    run_with_order (List.hd orders)
  in
  check_bool "b's death detected" true (ref_detected <> None);
  check_bool "both probes answered from the probed address" true
    (ref_replies
    = [ ("10.0.0.1", "reply 1 10.0.0.1"); ("10.0.0.2", "reply 2 10.0.0.2") ]);
  check_int "garbage probe counted" 1 (counter world "host.b.ip.malformed.probe");
  check_int "unsealable statex counted" 1
    (counter world "host.b.ip.malformed.statex");
  check_int "truncated beat counted" 1
    (counter world "host.a.ip.malformed.heartbeat");
  check_int "undecodable image rejected" 1 (counter world "statex.rejects");
  List.iter
    (fun order ->
      let json, detected, replies, _ = run_with_order order in
      check_bool "same detection instant" true (detected = ref_detected);
      check_bool "same probe replies" true (replies = ref_replies);
      check_string "same metrics snapshot" ref_json json)
    (List.tl orders)

let test_unregistered_proto_uncounted () =
  let world = World.create () in
  let lan = World.make_lan world () in
  let a = World.add_host world lan ~name:"a" ~addr:"10.0.0.1" () in
  let b = World.add_host world lan ~name:"b" ~addr:"10.0.0.2" () in
  World.warm_arp [ a; b ];
  ignore (Transfer.attach b);
  Dispatch.arm_probe_responder b;
  ignore
    (Heartbeat.start b ~peer:(Host.addr a) ~role:`Secondary ~config:hb_config
       ~on_peer_failure:ignore);
  let rx0 = counter world "host.b.ip.rx" in
  (* cross-traffic's protocol: nobody on b owns it *)
  send_raw a ~dst:b ~proto:200 (String.make 64 'x');
  World.run world ~for_:(Time.ms 1);
  check_int "delivered to b's IP layer" (rx0 + 1) (counter world "host.b.ip.rx");
  check_bool "one counter per registered protocol" true
    (List.map fst (malformed world)
    = [ "host.b.ip.malformed.heartbeat"; "host.b.ip.malformed.probe";
        "host.b.ip.malformed.statex" ]);
  List.iter (fun (name, v) -> check_int name 0 v) (malformed world)

let suite =
  [
    Alcotest.test_case "registering a proto twice raises" `Quick
      test_register_twice_raises;
    Alcotest.test_case "registration order does not matter" `Quick
      test_registration_order_irrelevant;
    Alcotest.test_case "unregistered proto dropped uncounted" `Quick
      test_unregistered_proto_uncounted;
  ]
