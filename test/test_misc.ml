(* Heartbeat fault detection, the serialized-CPU model, and the failover
   configuration registry. *)

module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module Cpu = Tcpfo_sim.Cpu
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Heartbeat = Tcpfo_core.Heartbeat
module Failover_config = Tcpfo_core.Failover_config
open Testutil

(* ---------------- Heartbeat / fault detector ---------------- *)

let hb_config =
  Failover_config.make ~heartbeat_period:(Time.ms 10)
    ~detector_timeout:(Time.ms 30) ()

let make_pair () =
  let world = World.create () in
  let lan = World.make_lan world () in
  let a = World.add_host world lan ~name:"a" ~addr:"10.0.0.1" () in
  let b = World.add_host world lan ~name:"b" ~addr:"10.0.0.2" () in
  World.warm_arp [ a; b ];
  (world, a, b)

let test_healthy_peer_not_suspected () =
  let world, a, b = make_pair () in
  let a_fired = ref false and b_fired = ref false in
  let _ha =
    Heartbeat.start a ~peer:(Host.addr b) ~role:`Primary ~config:hb_config
      ~on_peer_failure:(fun () -> a_fired := true)
  in
  let _hb =
    Heartbeat.start b ~peer:(Host.addr a) ~role:`Secondary ~config:hb_config
      ~on_peer_failure:(fun () -> b_fired := true)
  in
  World.run world ~for_:(Time.sec 5.0);
  check_bool "a trusts b" false !a_fired;
  check_bool "b trusts a" false !b_fired;
  let received host =
    Tcpfo_obs.Registry.counter_value (World.metrics world)
      (Printf.sprintf "host.%s.heartbeat.received" host)
  in
  check_bool "heartbeats flowing" true (received "a" > 400);
  check_bool "both directions" true (received "b" > 400)

let test_detects_dead_peer_within_bound () =
  let world, a, b = make_pair () in
  let detected_at = ref None in
  let _ha =
    Heartbeat.start a ~peer:(Host.addr b) ~role:`Primary ~config:hb_config
      ~on_peer_failure:(fun () -> detected_at := Some (World.now world))
  in
  let _hb =
    Heartbeat.start b ~peer:(Host.addr a) ~role:`Secondary ~config:hb_config
      ~on_peer_failure:(fun () -> ())
  in
  World.run world ~for_:(Time.ms 200);
  ignore (Host.kill b);
  let kill_time = World.now world in
  World.run world ~for_:(Time.sec 2.0);
  match !detected_at with
  | None -> Alcotest.fail "failure never detected"
  | Some t ->
    let latency = t - kill_time in
    check_bool "after timeout" true (latency >= Time.ms 30);
    check_bool "within timeout + 2 periods" true (latency <= Time.ms 55)

let test_fires_exactly_once () =
  let world, a, b = make_pair () in
  let count = ref 0 in
  let _ha =
    Heartbeat.start a ~peer:(Host.addr b) ~role:`Primary ~config:hb_config
      ~on_peer_failure:(fun () -> incr count)
  in
  Host.kill b;
  World.run world ~for_:(Time.sec 3.0);
  check_int "single callback" 1 !count

let test_stop_silences_detector () =
  let world, a, b = make_pair () in
  let fired = ref false in
  let ha =
    Heartbeat.start a ~peer:(Host.addr b) ~role:`Primary ~config:hb_config
      ~on_peer_failure:(fun () -> fired := true)
  in
  Heartbeat.stop ha;
  Host.kill b;
  World.run world ~for_:(Time.sec 2.0);
  check_bool "stopped detector stays quiet" false !fired

(* ---------------- Cpu ---------------- *)

let test_cpu_serializes () =
  let engine = Engine.create () in
  let clock = Testutil.host_clock engine in
  let cpu = Cpu.create clock in
  let log = ref [] in
  Cpu.run cpu ~cost:(Time.us 10) (fun () ->
      log := (1, Engine.now engine) :: !log);
  Cpu.run cpu ~cost:(Time.us 5) (fun () ->
      log := (2, Engine.now engine) :: !log);
  Engine.run engine;
  (match List.rev !log with
  | [ (1, t1); (2, t2) ] ->
    Testutil.check_int "first at its cost" (Time.us 10) t1;
    Testutil.check_int "second queued behind" (Time.us 15) t2
  | _ -> Alcotest.fail "wrong order");
  Testutil.check_int "total busy" (Time.us 15) (Cpu.total_busy cpu)

let test_cpu_idle_gap () =
  let engine = Engine.create () in
  let clock = Testutil.host_clock engine in
  let cpu = Cpu.create clock in
  let at = ref 0 in
  Cpu.run cpu ~cost:(Time.us 10) (fun () -> ());
  (* submit later work after the CPU went idle: no queueing *)
  ignore
    (Engine.schedule engine ~delay:(Time.us 100) (fun () ->
         Cpu.run cpu ~cost:(Time.us 7) (fun () -> at := Engine.now engine)));
  Engine.run engine;
  Testutil.check_int "starts immediately when idle" (Time.us 107) !at

(* ---------------- Failover_config registry ---------------- *)

let test_registry_port_methods () =
  let cfg = Failover_config.make ~service_ports:[ 80 ] () in
  let reg = Failover_config.create_registry cfg in
  (* method 2: static port list *)
  check_bool "static local" true
    (Failover_config.is_failover_conn reg ~local_port:80 ~remote_port:55555);
  check_bool "remote port not yet registered" false
    (Failover_config.is_failover_conn reg ~local_port:49152
       ~remote_port:5432);
  (* a §7.2 back end registers its remote port, as connect_backend does *)
  Failover_config.register_remote reg ~remote_port:5432;
  check_bool "registered back-end remote" true
    (Failover_config.is_failover_conn reg ~local_port:49152
       ~remote_port:5432);
  check_bool "unrelated" false
    (Failover_config.is_failover_conn reg ~local_port:22 ~remote_port:2222);
  (* method 1: per-socket registration *)
  Failover_config.register_endpoint reg ~local_port:8080;
  check_bool "registered local" true
    (Failover_config.is_failover_conn reg ~local_port:8080
       ~remote_port:60000);
  Failover_config.register_remote reg ~remote_port:6379;
  check_bool "registered remote" true
    (Failover_config.is_failover_conn reg ~local_port:49153
       ~remote_port:6379);
  (* idempotent registration *)
  Failover_config.register_endpoint reg ~local_port:8080;
  check_bool "still works" true
    (Failover_config.is_failover_local_port reg 8080);
  (* the remote-port predicate the transfer candidate selection relies
     on: a §7.2 client-role conn has an EPHEMERAL local port, so only
     the remote side marks it as a failover connection *)
  check_bool "remote predicate (back end)" true
    (Failover_config.is_failover_remote_port reg 5432);
  check_bool "remote predicate (registered)" true
    (Failover_config.is_failover_remote_port reg 6379);
  check_bool "a local service port is not a remote one" false
    (Failover_config.is_failover_remote_port reg 80)

let suite =
  [
    Alcotest.test_case "healthy peer never suspected" `Quick
      test_healthy_peer_not_suspected;
    Alcotest.test_case "dead peer detected within bound" `Quick
      test_detects_dead_peer_within_bound;
    Alcotest.test_case "detector fires exactly once" `Quick
      test_fires_exactly_once;
    Alcotest.test_case "stopped detector stays quiet" `Quick
      test_stop_silences_detector;
    Alcotest.test_case "cpu serializes work" `Quick test_cpu_serializes;
    Alcotest.test_case "cpu idle gap" `Quick test_cpu_idle_gap;
    Alcotest.test_case "failover config registry" `Quick
      test_registry_port_methods;
  ]

(* ---------------- Capture ---------------- *)

module Capture = Tcpfo_net.Capture
module Stack2 = Tcpfo_tcp.Stack
module Tcb2 = Tcpfo_tcp.Tcb

let test_capture_handshake () =
  let world = World.create () in
  let lan = World.make_lan world () in
  let client = World.add_host world lan ~name:"c" ~addr:"10.0.0.10" () in
  let server = World.add_host world lan ~name:"s" ~addr:"10.0.0.1" () in
  World.warm_arp [ client; server ];
  let cap =
    Capture.start (World.engine world) lan
      ~filter:(fun f ->
        match f.Tcpfo_packet.Eth_frame.payload with
        | Tcpfo_packet.Eth_frame.Ip
            { payload = Tcpfo_packet.Ipv4_packet.Tcp _; _ } ->
          true
        | _ -> false)
      ()
  in
  Stack2.listen (Host.tcp server) ~port:80 ~on_accept:(fun _ -> ());
  let c = Stack2.connect (Host.tcp client) ~remote:(Host.addr server, 80) () in
  World.run world ~for_:(Time.sec 1.0);
  ignore c;
  (* exactly the three-way handshake: SYN, SYN-ACK, ACK *)
  let segs = Capture.tcp_segments cap in
  check_int "three segments" 3 (List.length segs);
  (match List.map snd segs with
  | [ p1; p2; p3 ] ->
    let flags (p : Tcpfo_packet.Ipv4_packet.t) =
      match p.payload with
      | Tcp s -> Tcpfo_packet.Tcp_segment.flags_to_string s.flags
      | _ -> "?"
    in
    check_string "syn" "S" (flags p1);
    check_string "synack" "SA" (flags p2);
    check_string "ack" "A" (flags p3)
  | _ -> Alcotest.fail "expected 3");
  (* timestamps monotone and the dump renders every record *)
  let times = List.map fst segs in
  check_bool "monotone" true (times = List.sort compare times);
  let d = Capture.dump cap in
  check_int "dump lines" 3
    (List.length (String.split_on_char '\n' (String.trim d)));
  Capture.stop cap;
  let before = Capture.seen cap in
  let c2 = Stack2.connect (Host.tcp client) ~remote:(Host.addr server, 80) () in
  ignore c2;
  World.run world ~for_:(Time.sec 1.0);
  check_int "nothing after stop" before (Capture.seen cap)

let test_capture_limit () =
  let world = World.create () in
  let lan = World.make_lan world () in
  let a = World.add_host world lan ~name:"a" ~addr:"10.0.0.1" () in
  let b = World.add_host world lan ~name:"b" ~addr:"10.0.0.2" () in
  World.warm_arp [ a; b ];
  let cap = Capture.start (World.engine world) lan ~limit:5 () in
  for _ = 1 to 20 do
    Tcpfo_ip.Ip_layer.send (Host.ip a)
      (Tcpfo_packet.Ipv4_packet.make ~src:(Host.addr a) ~dst:(Host.addr b)
         (Tcpfo_packet.Ipv4_packet.Raw { proto = 99; data = "x" }))
  done;
  World.run_until_idle world;
  check_int "seen all" 20 (Capture.seen cap);
  check_int "kept bounded" 5 (Capture.count cap);
  Capture.clear cap;
  check_int "cleared" 0 (Capture.count cap)

(* ---------------- Event stringifiers ---------------- *)

module Replicated = Tcpfo_core.Replicated
module Chain = Tcpfo_core.Chain

(* Compile-time exhaustiveness: these matches have no wildcard, so
   adding a constructor to either event type breaks the build here
   until the sample list below (and the stringifier) learns it. *)
let _covers_replicated : Replicated.event -> unit = function
  | Replicated.Secondary_failure_detected | Replicated.Primary_failure_detected
  | Replicated.Takeover_complete | Replicated.Reintegrated
  | Replicated.Transfers_complete _ | Replicated.Promoted _
  | Replicated.Standby_lost _ | Replicated.Rejoined _ | Replicated.Isolated _ ->
    ()

let _covers_chain : Chain.event -> unit = function
  | Chain.Death_detected _ | Chain.Promoted _ | Chain.Retargeted _
  | Chain.Degraded _ | Chain.Rejoined _ | Chain.Transfers_complete _
  | Chain.Isolated _ ->
    ()

(* Runtime audit: every constructor renders non-empty and no two
   constructors collapse to the same line, so a soak report or trace
   can never print an event as a blank or a look-alike. *)
let test_event_strings_exhaustive () =
  let addr = Tcpfo_packet.Ipaddr.of_string "10.0.0.9" in
  let repl_events =
    [
      Replicated.Secondary_failure_detected;
      Replicated.Primary_failure_detected;
      Replicated.Takeover_complete;
      Replicated.Reintegrated;
      Replicated.Transfers_complete 3;
      Replicated.Promoted "standby1";
      Replicated.Standby_lost "standby1";
      Replicated.Rejoined "repaired";
      Replicated.Isolated
        { local_port = 7; remote = (addr, 80); state = Tcb2.Syn_received };
    ]
  in
  let chain_events =
    [
      Chain.Death_detected 0;
      Chain.Promoted 1;
      Chain.Retargeted (0, 1);
      Chain.Degraded 2;
      Chain.Rejoined 2;
      Chain.Transfers_complete 4;
      Chain.Isolated
        { local_port = 7; remote = (addr, 80); state = Tcb2.Established };
    ]
  in
  let audit name to_string events =
    let strs = List.map to_string events in
    List.iter
      (fun s -> check_bool (name ^ " event renders non-empty") true
          (String.length s > 0))
      strs;
    check_int
      (name ^ " event strings pairwise distinct")
      (List.length events)
      (List.length (List.sort_uniq compare strs))
  in
  audit "replicated" Replicated.event_to_string repl_events;
  audit "chain" Chain.event_to_string chain_events

let suite =
  suite
  @ [
      Alcotest.test_case "capture records a handshake" `Quick
        test_capture_handshake;
      Alcotest.test_case "capture respects its limit" `Quick
        test_capture_limit;
      Alcotest.test_case "event stringifiers exhaustive and distinct" `Quick
        test_event_strings_exhaustive;
    ]
