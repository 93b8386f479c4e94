(* Tests for the Topo DSL: spec validation, World-level duplicate-binding
   rejection, and the determinism contract — a Topo-built world must be
   byte-identical (metrics and all) to the equivalent hand-wired World
   calls. *)

module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Topo = Tcpfo_host.Topo
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Registry = Tcpfo_obs.Registry
open Testutil

let is_error = function Error _ -> true | Ok _ -> false

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let lan_pair_spec =
  [
    Topo.segment "lan";
    Topo.host ~addr:"10.0.0.10" ~seg:"lan" "client";
    Topo.host ~addr:"10.0.0.1" ~seg:"lan" "server";
  ]

let test_validate_ok () =
  check_bool "plain LAN spec valid" true (Topo.validate lan_pair_spec = Ok ());
  let with_group =
    lan_pair_spec
    @ [
        Topo.host ~addr:"10.0.0.2" ~seg:"lan" "spare";
        Topo.group ~members:[ "server"; "spare" ] "pool";
      ]
  in
  check_bool "grouped spec valid" true (Topo.validate with_group = Ok ());
  let wan =
    [
      Topo.segment "net";
      Topo.link "wan";
      Topo.host ~gateway:"10.0.0.254" ~addr:"10.0.0.1" ~seg:"net" "server";
      Topo.router ~seg:"net" ~lan_addr:"10.0.0.254" ~link:"wan"
        ~wan_addr:"192.168.0.1" "rt";
      Topo.wan_host ~addr:"192.168.0.2" ~link:"wan" "client";
    ]
  in
  check_bool "WAN spec valid" true (Topo.validate wan = Ok ())

let test_validate_rejects () =
  let bad what spec =
    check_bool (what ^ " rejected") true (is_error (Topo.validate spec))
  in
  bad "duplicate host name"
    (lan_pair_spec @ [ Topo.host ~addr:"10.0.0.3" ~seg:"lan" "server" ]);
  bad "unknown segment"
    [ Topo.segment "lan"; Topo.host ~addr:"10.0.0.1" ~seg:"wrong" "a" ];
  bad "segment declared after its host"
    [ Topo.host ~addr:"10.0.0.1" ~seg:"lan" "a"; Topo.segment "lan" ];
  bad "duplicate IP on one segment"
    (lan_pair_spec @ [ Topo.host ~addr:"10.0.0.1" ~seg:"lan" "twin" ]);
  bad "malformed address"
    [ Topo.segment "lan"; Topo.host ~addr:"not-an-ip" ~seg:"lan" "a" ];
  bad "group of one"
    (lan_pair_spec @ [ Topo.group ~members:[ "server" ] "pool" ]);
  bad "group with unknown member"
    (lan_pair_spec @ [ Topo.group ~members:[ "server"; "ghost" ] "pool" ]);
  bad "group spanning segments"
    ([
       Topo.segment "a";
       Topo.segment "b";
       Topo.host ~addr:"10.0.0.1" ~seg:"a" "x";
       Topo.host ~addr:"10.1.0.1" ~seg:"b" "y";
     ]
    @ [ Topo.group ~members:[ "x"; "y" ] "pool" ]);
  bad "dangling link (no endpoints)"
    (lan_pair_spec @ [ Topo.link "wan" ]);
  bad "wan host on unknown link"
    (lan_pair_spec @ [ Topo.wan_host ~addr:"192.168.0.2" ~link:"wan" "c" ])

(* Validation failures must NAME the offending declaration so a fat
   fleet spec pinpoints its own typo. *)
let expect_error_naming what needle spec =
  match Topo.validate spec with
  | Ok () -> Alcotest.fail (what ^ ": expected a validation error")
  | Error msg ->
    check_bool
      (Printf.sprintf "%s: error %S names %S" what msg needle)
      true (contains msg needle)

let fleet_spec =
  [
    Topo.segment "front";
    Topo.segment "back";
    Topo.host ~addr:"10.1.0.10" ~seg:"front" "client";
    Topo.host ~addr:"10.0.0.1" ~seg:"back" "s0a";
    Topo.host ~addr:"10.0.0.2" ~seg:"back" "s0b";
    Topo.host ~addr:"10.0.0.3" ~seg:"back" "s1a";
    Topo.host ~addr:"10.0.0.4" ~seg:"back" "s1b";
    Topo.group ~members:[ "s0a"; "s0b" ] "shard0";
    Topo.group ~members:[ "s1a"; "s1b" ] "shard1";
  ]

let test_validate_service_dispatch () =
  let ok =
    fleet_spec
    @ [
        Topo.service ~seg:"front" ~addr:"10.1.0.1" "fleet";
        Topo.dispatch ~service:"fleet" ~back:"10.0.0.254"
          ~shards:[ "shard0"; "shard1" ] "disp";
      ]
  in
  check_bool "fleet spec valid" true (Topo.validate ok = Ok ());
  let svc = Topo.service ~seg:"front" ~addr:"10.1.0.1" "fleet" in
  expect_error_naming "duplicate service" "\"fleet\""
    (fleet_spec @ [ svc; Topo.service ~seg:"front" ~addr:"10.1.0.2" "fleet" ]);
  expect_error_naming "service on unknown segment" "\"lost\""
    (fleet_spec @ [ Topo.service ~seg:"ghost" ~addr:"10.1.0.1" "lost" ]);
  expect_error_naming "dispatch without shards" "\"disp\""
    (fleet_spec
    @ [ svc;
        Topo.dispatch ~service:"fleet" ~back:"10.0.0.254" ~shards:[] "disp" ]);
  expect_error_naming "dispatch without service" "\"disp\""
    (fleet_spec
    @ [ Topo.dispatch ~service:"ghost" ~back:"10.0.0.254"
          ~shards:[ "shard0" ] "disp" ]);
  expect_error_naming "dispatch with unknown shard" "\"disp\""
    (fleet_spec
    @ [ svc;
        Topo.dispatch ~service:"fleet" ~back:"10.0.0.254"
          ~shards:[ "shard0"; "ghost" ] "disp" ]);
  expect_error_naming "dispatch listing a shard twice" "\"shard0\""
    (fleet_spec
    @ [ svc;
        Topo.dispatch ~service:"fleet" ~back:"10.0.0.254"
          ~shards:[ "shard0"; "shard0" ] "disp" ]);
  expect_error_naming "dispatch with shards on the front wire" "\"disp\""
    ([
       Topo.segment "front";
       Topo.host ~addr:"10.1.0.2" ~seg:"front" "a";
       Topo.host ~addr:"10.1.0.3" ~seg:"front" "b";
       Topo.group ~members:[ "a"; "b" ] "shard0";
       Topo.service ~seg:"front" ~addr:"10.1.0.1" "fleet";
     ]
    @ [ Topo.dispatch ~service:"fleet" ~back:"10.1.0.254"
          ~shards:[ "shard0" ] "disp" ]);
  expect_error_naming "two dispatchers on one service" "\"fleet\""
    (fleet_spec
    @ [ svc;
        Topo.dispatch ~service:"fleet" ~back:"10.0.0.254"
          ~shards:[ "shard0" ] "disp1";
        Topo.dispatch ~service:"fleet" ~back:"10.0.0.253"
          ~shards:[ "shard1" ] "disp2";
      ])

let test_group_duplicate_member_rejected () =
  expect_error_naming "group listing a member twice" "\"server\""
    (lan_pair_spec @ [ Topo.group ~members:[ "server"; "server" ] "pool" ])

let test_build_raises_on_invalid () =
  expect_invalid "duplicate IP" (fun () ->
      let world = World.create () in
      Topo.build world
        (lan_pair_spec @ [ Topo.host ~addr:"10.0.0.1" ~seg:"lan" "twin" ]))

(* The World-level backstop behind the validator: hand-wired duplicate
   bindings on one segment are rejected too, while the same address on
   DIFFERENT segments is fine. *)
let test_world_rejects_duplicate_bindings () =
  let world = World.create () in
  let lan = World.make_lan world () in
  let _a = World.add_host world lan ~name:"a" ~addr:"10.0.0.1" () in
  expect_invalid "same IP on same segment" (fun () ->
      World.add_host world lan ~name:"b" ~addr:"10.0.0.1" ());
  let other = World.make_lan world () in
  let _c = World.add_host world other ~name:"c" ~addr:"10.0.0.1" () in
  ()

(* An identical echo workload driven over a Topo-built world and over the
   equivalent hand-wired World calls: the streams AND the full metrics
   registry must come out byte-identical, proving Topo draws RNG state
   and MACs in exactly the declared order. *)
let run_workload world ~client ~server =
  Stack.listen (Host.tcp server) ~port:7777 ~on_accept:(fun tcb ->
      Tcb.set_on_data tcb (fun d -> ignore (Tcb.send tcb d));
      Tcb.set_on_eof tcb (fun () -> Tcb.close tcb));
  let sink = make_sink () in
  let c =
    Stack.connect (Host.tcp client) ~remote:(Host.addr server, 7777) ()
  in
  wire_sink sink c;
  Tcb.set_on_established c (fun () ->
      send_all ~close:true c (pattern ~tag:3 2000));
  World.run world ~for_:(Time.sec 2.0);
  sink

let test_build_matches_hand_wired () =
  let seed = 7 in
  let hand = World.create ~seed () in
  let lan = World.make_lan hand () in
  let h_client = World.add_host hand lan ~name:"client" ~addr:"10.0.0.10" () in
  let h_server = World.add_host hand lan ~name:"server" ~addr:"10.0.0.1" () in
  World.warm_arp [ h_client; h_server ];
  let s1 = run_workload hand ~client:h_client ~server:h_server in
  let topo_world = World.create ~seed () in
  let topo = Topo.build topo_world lan_pair_spec in
  let s2 =
    run_workload topo_world
      ~client:(Topo.host_of topo "client")
      ~server:(Topo.host_of topo "server")
  in
  check_string "echoed stream identical" (sink_contents s1) (sink_contents s2);
  check_string "metrics byte-identical"
    (Registry.to_json (World.metrics hand))
    (Registry.to_json (World.metrics topo_world))

(* group_of is the promotion order: members come back exactly as
   declared (first = active primary, second = active secondary, rest
   standbys in promotion priority), not sorted or registration-hashed. *)
let test_group_promotion_order () =
  let world = World.create () in
  let spec =
    [
      Topo.segment "lan";
      Topo.host ~addr:"10.0.0.1" ~seg:"lan" "alpha";
      Topo.host ~addr:"10.0.0.2" ~seg:"lan" "beta";
      Topo.host ~addr:"10.0.0.3" ~seg:"lan" "gamma";
      Topo.group ~members:[ "beta"; "gamma"; "alpha" ] "pool";
    ]
  in
  let topo = Topo.build world spec in
  Alcotest.(check (list string))
    "members in declared promotion order"
    [ "beta"; "gamma"; "alpha" ]
    (List.map Host.name (Topo.group_of topo "pool"))

let test_accessors () =
  let world = World.create () in
  let spec =
    lan_pair_spec @ [ Topo.group ~members:[ "client"; "server" ] "pair" ]
  in
  let topo = Topo.build world spec in
  check_int "hosts listed" 2 (List.length (Topo.hosts topo));
  check_int "group resolved in order" 2
    (List.length (Topo.group_of topo "pair"));
  check_string "group head is first member" "client"
    (Host.name (List.hd (Topo.group_of topo "pair")));
  expect_invalid "unknown host accessor" (fun () -> Topo.host_of topo "ghost")

let suite =
  [
    Alcotest.test_case "validate accepts good specs" `Quick test_validate_ok;
    Alcotest.test_case "validate rejects bad specs" `Quick test_validate_rejects;
    Alcotest.test_case "validate service/dispatch declarations" `Quick
      test_validate_service_dispatch;
    Alcotest.test_case "group duplicate member rejected" `Quick
      test_group_duplicate_member_rejected;
    Alcotest.test_case "group_of preserves promotion order" `Quick
      test_group_promotion_order;
    Alcotest.test_case "build raises on invalid spec" `Quick
      test_build_raises_on_invalid;
    Alcotest.test_case "world rejects duplicate bindings" `Quick
      test_world_rejects_duplicate_bindings;
    Alcotest.test_case "build matches hand-wired world byte-for-byte" `Quick
      test_build_matches_hand_wired;
    Alcotest.test_case "accessors" `Quick test_accessors;
  ]
