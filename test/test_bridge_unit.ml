(* Fault-free behaviour of the failover bridge (paper §3, §7, §8). *)

module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module Seq32 = Tcpfo_util.Seq32
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Tcp_config = Tcpfo_tcp.Tcp_config
module Replicated = Tcpfo_core.Replicated
module Primary_bridge = Tcpfo_core.Primary_bridge
module Secondary_bridge = Tcpfo_core.Secondary_bridge
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Seg = Tcpfo_packet.Tcp_segment
open Testutil

let test_handshake_through_bridge () =
  let r = make_repl_lan () in
  let sinks = ref [] in
  echo_service ~request_size:4 ~reply_of:(fun _ -> "pong") r.repl ~port:80
    ~sinks ();
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  run_repl r;
  check_bool "client established" true csink.established;
  (* both replicas accepted the same connection *)
  check_int "two replica connections" 2 (List.length !sinks);
  check_bool "both established" true
    (List.for_all (fun (_, s) -> s.established) !sinks)

let test_request_reply () =
  let r = make_repl_lan () in
  let sinks = ref [] in
  echo_service ~request_size:4
    ~reply_of:(fun req -> "reply-to-" ^ req)
    r.repl ~port:80 ~sinks ();
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "ping"));
  run_repl r;
  check_string "client got exactly one reply" "reply-to-ping"
    (sink_contents csink);
  (* both replicas saw the request *)
  List.iter
    (fun (_, s) -> check_string "replica request" "ping" (sink_contents s))
    !sinks

let test_mss_is_minimum_of_replicas () =
  let r =
    make_repl_lan
      ~secondary_tcp_config:{ Tcp_config.default with mss = 1000 }
      ()
  in
  let sinks = ref [] in
  echo_service ~request_size:4 ~reply_of:(fun _ -> "x") r.repl ~port:80
    ~sinks ();
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  run_repl r;
  (* §7.1: the SYN sent to the client carries min(MSS_P, MSS_S) *)
  check_int "client sees min mss" 1000 (Tcb.effective_mss c)

let test_different_segmentation_matches_bytes () =
  (* §3.4/Fig 2: P and S segment the same reply differently (different
     MSS); the bridge must match byte ranges, not segments. *)
  let reply = pattern ~tag:21 50_000 in
  let r =
    make_repl_lan
      ~primary_tcp_config:{ Tcp_config.default with mss = 1460 }
      ~secondary_tcp_config:{ Tcp_config.default with mss = 536 }
      ()
  in
  let sinks = ref [] in
  echo_service ~request_size:3 ~reply_of:(fun _ -> reply) ~close_after:true
    r.repl ~port:80 ~sinks ();
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "get"));
  run_repl r;
  check_string "byte-exact reply" reply (sink_contents csink);
  check_bool "client saw eof" true csink.eof

let test_client_to_server_bulk () =
  let data = pattern ~tag:22 200_000 in
  let r = make_repl_lan () in
  let sinks = ref [] in
  echo_service ~request_size:(String.length data) ~reply_of:(fun _ -> "ok")
    r.repl ~port:80 ~sinks ();
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> send_all c data);
  run_repl r;
  check_string "ack of upload" "ok" (sink_contents csink);
  List.iter
    (fun (role, s) ->
      let name =
        match role with `Primary -> "primary" | `Secondary -> "secondary"
      in
      check_string (name ^ " has full upload") data (sink_contents s))
    !sinks

let test_bridge_stats_and_delta () =
  let r = make_repl_lan () in
  let sinks = ref [] in
  echo_service ~request_size:4 ~reply_of:(fun _ -> String.make 5000 'z')
    r.repl ~port:80 ~sinks ();
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "ping"));
  run_repl r;
  let counter = Tcpfo_obs.Registry.counter_value (World.metrics r.rworld) in
  check_bool "delta recorded" true
    (Primary_bridge.conn_delta
       (Replicated.primary_bridge r.repl)
       ~remote:(Host.addr r.rclient, snd (Tcb.local_endpoint c))
       ~local_port:80
    <> None);
  check_bool "segments emitted" true (counter "bridge.primary.emitted" > 3);
  (* both queues drained: every reply byte left as a merged byte *)
  check_int "whole reply merged" 5000 (counter "bridge.primary.merged_bytes")

let test_secondary_diverts_everything () =
  let r = make_repl_lan () in
  let sinks = ref [] in
  echo_service ~request_size:4 ~reply_of:(fun _ -> String.make 20_000 'r')
    r.repl ~port:80 ~sinks ();
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  let csink = make_sink () in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "ping"));
  (* no frame on the wire may carry a TCP segment from a_s to the client:
     everything from the secondary must go via the primary *)
  let direct_to_client = ref 0 in
  let _ =
    drop_rx r.rclient ~pred:(fun pkt ->
        (match pkt.Ipv4_packet.payload with
        | Tcp _
          when Tcpfo_packet.Ipaddr.equal pkt.src (Host.addr r.secondary) ->
          incr direct_to_client
        | _ -> ());
        false)
  in
  run_repl r;
  check_int "no direct secondary->client tcp" 0 !direct_to_client;
  check_string "reply intact" (String.make 20_000 'r') (sink_contents csink);
  check_bool "secondary diverted segments" true
    (Tcpfo_obs.Registry.counter_value (World.metrics r.rworld)
       "bridge.secondary.diverted"
    > 0);
  check_bool "secondary snooped client traffic" true
    (Tcpfo_obs.Registry.counter_value (World.metrics r.rworld)
       "bridge.secondary.claimed"
    > 0)

(* The secondary's NIC captures every frame on the segment, but only the
   datagrams for the service address it snoops reach its bridge; those for
   a third host are charged to its CPU and dropped before any hook
   (DESIGN.md 7.1). *)
let test_snoop_claims_service_traffic_only () =
  let r = make_repl_lan () in
  let other =
    World.add_host r.rworld r.rlan ~name:"other" ~addr:"10.0.0.20" ()
  in
  World.warm_arp [ r.rclient; r.primary; r.secondary; other ];
  let sinks = ref [] in
  echo_service ~request_size:4 ~reply_of:(fun _ -> "pong") r.repl ~port:80
    ~sinks ();
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  let csink = make_sink () in
  wire_sink csink c;
  let foreign = 5 in
  Tcb.set_on_established c (fun () ->
      ignore (Tcb.send c "ping");
      for _ = 1 to foreign do
        Tcpfo_ip.Ip_layer.send (Host.ip r.rclient)
          (Ipv4_packet.make ~src:(Host.addr r.rclient) ~dst:(Host.addr other)
             (Ipv4_packet.Raw { proto = 200; data = "not for the pool" }))
      done);
  let hooked = ref 0 and hooked_foreign = ref 0 in
  let service = Replicated.service_addr r.repl in
  let _ =
    drop_rx r.secondary ~pred:(fun pkt ->
        incr hooked;
        let dst = pkt.Ipv4_packet.dst in
        let is = Tcpfo_packet.Ipaddr.equal dst in
        if not (is service || is (Host.addr r.secondary)) then
          incr hooked_foreign;
        false)
  in
  let count host =
    let n = ref 0 in
    let _ = drop_rx host ~pred:(fun _ -> incr n; false) in
    n
  in
  let at_other = count other and at_client = count r.rclient in
  run_repl r;
  let counter = Tcpfo_obs.Registry.counter_value (World.metrics r.rworld) in
  check_string "client reply" "pong" (sink_contents csink);
  List.iter
    (fun (_, s) -> check_string "replica request" "ping" (sink_contents s))
    !sinks;
  check_bool "service traffic claimed" true
    (counter "bridge.secondary.claimed" > 0);
  check_int "third host got the datagrams" foreign !at_other;
  (* the primary's output to the client is a third host's traffic too *)
  check_int "no hook saw a datagram for another host" 0 !hooked_foreign;
  (* the foreign datagrams never reach the secondary's NIC; its filter
     passes the primary's output to the client, which IP drops *)
  check_int "the rest were taken and dropped" !at_client
    (counter "host.secondary.nic.rx" - !hooked)

(* Two pools on one segment, A serving a download and B idle: each
   secondary's filter passes only its own service's frames, so none of
   A's traffic reaches B's secondary, while A's still pays a receive
   for each frame its primary sends (DESIGN.md 7.1). *)
let test_snoop_pays_only_own_service () =
  let world = World.create () in
  let lan = World.make_lan world () in
  let add name addr = World.add_host world lan ~name ~addr () in
  let client = add "client" "10.0.0.10" in
  let a_primary = add "a-primary" "10.0.0.1"
  and a_secondary = add "a-secondary" "10.0.0.2" in
  let b_primary = add "b-primary" "10.0.0.3"
  and b_secondary = add "b-secondary" "10.0.0.4" in
  World.warm_arp [ client; a_primary; a_secondary; b_primary; b_secondary ];
  let a = Replicated.create ~primary:a_primary ~secondary:a_secondary
      ~config:Failover_config.default () in
  let _b : Replicated.t =
    Replicated.create ~primary:b_primary ~secondary:b_secondary
      ~config:Failover_config.default ()
  in
  (* a tap counts the frames on the segment, and those to or from A *)
  let a_addrs =
    [ Host.addr a_primary; Host.addr a_secondary; Replicated.service_addr a ]
  in
  let is_a ip = List.exists (Tcpfo_packet.Ipaddr.equal ip) a_addrs in
  let wire = ref 0 and a_frames = ref 0 in
  ignore
    (Tcpfo_net.Medium.attach lan ~deliver:(fun f ->
         incr wire;
         match f.Tcpfo_packet.Eth_frame.payload with
         | Tcpfo_packet.Eth_frame.Ip p when is_a p.src || is_a p.dst ->
           incr a_frames
         | _ -> ()));
  let reply = pattern ~tag:7 100_000 in
  let r =
    { rworld = world; rlan = lan; rclient = client; primary = a_primary;
      secondary = a_secondary; repl = a }
  in
  echo_service ~request_size:3 ~reply_of:(fun _ -> reply) ~close_after:true
    a ~port:80 ~sinks:(ref []) ();
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp client) ~remote:(Replicated.service_addr a, 80) ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "get"));
  run_repl r;
  let counter name key =
    Tcpfo_obs.Registry.counter_value (World.metrics world)
      (Printf.sprintf "host.%s.%s" name key)
  in
  check_string "download intact" reply (sink_contents csink);
  check_bool "A's frames crossed the segment" true (!a_frames > 1000);
  check_int "B's secondary takes none of A's frames"
    (!wire - !a_frames - counter "b-secondary" "nic.tx")
    (counter "b-secondary" "nic.rx");
  check_int "B's secondary paid nothing for them" 0
    (counter "b-secondary" "ip.snoop_busy_ns");
  check_bool "A's secondary pays for its primary's output" true
    (counter "a-secondary" "ip.snoop_busy_ns" > 0)

let test_retransmission_forwarded_immediately () =
  (* drop one merged data segment at the client: both replicas retransmit;
     the bridge forwards the retransmissions instead of queueing (§4) *)
  let reply = pattern ~tag:23 30_000 in
  let r = make_repl_lan () in
  let sinks = ref [] in
  echo_service ~request_size:3 ~reply_of:(fun _ -> reply) r.repl ~port:80
    ~sinks ();
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "get"));
  let first_data = ref true in
  let _ =
    drop_rx r.rclient ~pred:(fun pkt ->
        match pkt.Ipv4_packet.payload with
        | Tcp seg when String.length seg.payload > 1000 && !first_data ->
          first_data := false;
          true
        | _ -> false)
  in
  run_repl r;
  check_string "stream heals" reply (sink_contents csink);
  check_bool "bridge forwarded retransmissions" true
    (Tcpfo_obs.Registry.counter_value (World.metrics r.rworld)
       "bridge.primary.retrans_forwarded"
    >= 1)

let test_client_upload_with_secondary_loss () =
  (* §4 second bullet: the secondary misses a client segment the primary
     received.  The joint (minimum) ack must hold the client back until
     the secondary has the bytes; the upload still completes exactly. *)
  let data = pattern ~tag:24 40_000 in
  let r = make_repl_lan () in
  let sinks = ref [] in
  echo_service ~request_size:(String.length data) ~reply_of:(fun _ -> "ok")
    r.repl ~port:80 ~sinks ();
  let dropped = ref false in
  let _ =
    drop_rx r.secondary ~pred:(fun pkt ->
        match pkt.Ipv4_packet.payload with
        | Tcp seg
          when String.length seg.payload > 1000 && not !dropped ->
          dropped := true;
          true
        | _ -> false)
  in
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> send_all c data);
  run_repl r;
  check_bool "a segment was withheld from secondary" true !dropped;
  check_string "client saw completion" "ok" (sink_contents csink);
  List.iter
    (fun (_, s) -> check_string "replica complete" data (sink_contents s))
    !sinks

let test_full_close_through_bridge () =
  let r = make_repl_lan () in
  let sinks = ref [] in
  echo_service ~close_after:true ~request_size:4
    ~reply_of:(fun _ -> "done")
    r.repl ~port:80 ~sinks ();
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () ->
      ignore (Tcb.send c "ping");
      Tcb.close c);
  (* bound the run: TIME_WAIT etc. *)
  World.run r.rworld ~for_:(Time.sec 30.0);
  check_string "reply received" "done" (sink_contents csink);
  check_bool "client saw eof" true csink.eof;
  check_bool "client terminated" true
    (match Tcb.state c with Tcb.Closed | Tcb.Time_wait -> true | _ -> false)

let test_non_failover_port_bypasses_bridge () =
  let r = make_repl_lan () in
  (* an ordinary, unreplicated service on the primary host, port 9000:
     must work untouched although the bridge is installed *)
  let ssink = make_sink () in
  Stack.listen (Host.tcp r.primary) ~port:9000 ~on_accept:(fun tcb ->
      wire_sink ssink tcb;
      Tcb.set_on_data tcb (fun d ->
          Buffer.add_string ssink.buf d;
          ignore (Tcb.send tcb "plain")));
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient) ~remote:(Host.addr r.primary, 9000) ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "hi"));
  run_repl r;
  check_string "plain tcp works" "plain" (sink_contents csink);
  check_int "bridge untouched" 0
    (Primary_bridge.connection_count (Replicated.primary_bridge r.repl))

let test_server_initiated_connection () =
  (* §7.2: the replicated pair connects out to an unreplicated back end,
     which must share the replicas' segment — built explicitly here *)
  let world = World.create () in
  let lan = World.make_lan world () in
  let client = World.add_host world lan ~name:"client" ~addr:"10.0.0.10" () in
  let primary = World.add_host world lan ~name:"primary" ~addr:"10.0.0.1" () in
  let secondary =
    World.add_host world lan ~name:"secondary" ~addr:"10.0.0.2" ()
  in
  let backend = World.add_host world lan ~name:"backend" ~addr:"10.0.0.3" () in
  World.warm_arp [ client; primary; secondary; backend ];
  let repl =
    Replicated.create ~primary ~secondary
      ~config:Tcpfo_core.Failover_config.default ()
  in
  (* backend: receives a query, answers *)
  let bsink = make_sink () in
  Stack.listen (Host.tcp backend) ~port:5432 ~on_accept:(fun tcb ->
      wire_sink bsink tcb;
      Tcb.set_on_data tcb (fun d ->
          Buffer.add_string bsink.buf d;
          if Buffer.contents bsink.buf = "query" then
            ignore (Tcb.send tcb "rows")));
  let replica_rx = ref [] in
  Replicated.connect_backend repl
    ~remote:(Host.addr backend, 5432)
    ~setup:(fun ~role tcb ->
      let sink = make_sink () in
      replica_rx := (role, sink) :: !replica_rx;
      wire_sink sink tcb;
      Tcb.set_on_established tcb (fun () -> ignore (Tcb.send tcb "query")))
    ();
  World.run world ~for_:(Time.sec 30.0);
  check_string "backend got one query" "query" (sink_contents bsink);
  check_int "both replicas connected" 2 (List.length !replica_rx);
  List.iter
    (fun (_, s) -> check_string "replica got rows" "rows" (sink_contents s))
    !replica_rx

let test_concurrent_connections () =
  let r = make_repl_lan () in
  let sinks = ref [] in
  echo_service ~request_size:6
    ~reply_of:(fun req -> "R:" ^ req)
    r.repl ~port:80 ~sinks ();
  let results = ref [] in
  for i = 1 to 5 do
    let c =
      Stack.connect (Host.tcp r.rclient)
        ~remote:(Replicated.service_addr r.repl, 80)
        ()
    in
    let sink = make_sink () in
    wire_sink sink c;
    results := (i, sink) :: !results;
    Tcb.set_on_established c (fun () ->
        ignore (Tcb.send c (Printf.sprintf "req-%02d" i)))
  done;
  run_repl r;
  check_int "ten replica conns" 10 (List.length !sinks);
  List.iter
    (fun (i, sink) ->
      check_string "per-conn reply"
        (Printf.sprintf "R:req-%02d" i)
        (sink_contents sink))
    !results

let suite =
  [
    Alcotest.test_case "handshake through bridge" `Quick
      test_handshake_through_bridge;
    Alcotest.test_case "request/reply: one merged reply" `Quick
      test_request_reply;
    Alcotest.test_case "SYN carries min MSS (7.1)" `Quick
      test_mss_is_minimum_of_replicas;
    Alcotest.test_case "byte matching across segmentations (3.4)" `Quick
      test_different_segmentation_matches_bytes;
    Alcotest.test_case "client upload reaches both replicas" `Quick
      test_client_to_server_bulk;
    Alcotest.test_case "bridge stats and delta" `Quick
      test_bridge_stats_and_delta;
    Alcotest.test_case "secondary output diverted, never direct (3.1)"
      `Quick test_secondary_diverts_everything;
    Alcotest.test_case "retransmissions forwarded immediately (4)" `Quick
      test_retransmission_forwarded_immediately;
    Alcotest.test_case "min-ack holds client back on secondary loss (4)"
      `Quick test_client_upload_with_secondary_loss;
    Alcotest.test_case "orderly close through bridge (8)" `Quick
      test_full_close_through_bridge;
    Alcotest.test_case "non-failover port bypasses bridge (7)" `Quick
      test_non_failover_port_bypasses_bridge;
    Alcotest.test_case "server-initiated connection (7.2)" `Quick
      test_server_initiated_connection;
    Alcotest.test_case "five concurrent connections" `Quick
      test_concurrent_connections;
  ]

let test_late_client_fin_answered_after_teardown () =
  (* §8: the server closes first; the client closes from CLOSE_WAIT and
     its FIN is acknowledged by the bridge — but that ACK is lost.  The
     client retransmits the FIN from LAST_ACK after the bridge tore down,
     and the lingering connection record answers it. *)
  let r = make_repl_lan () in
  let sinks = ref [] in
  echo_service ~close_after:true ~request_size:4 ~reply_of:(fun _ -> "done")
    r.repl ~port:80 ~sinks ();
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "ping"));
  (* close only after the server side has fully closed toward us *)
  Tcb.set_on_eof c (fun () ->
      csink.eof <- true;
      ignore
        ((Host.clock r.rclient).schedule (Time.ms 5) (fun () -> Tcb.close c)));
  (* drop the first pure ACK that covers the client's FIN while the
     client sits in LAST_ACK *)
  let dropped = ref false in
  let _ =
    drop_rx r.rclient ~pred:(fun pkt ->
        match pkt.Ipv4_packet.payload with
        | Tcp seg
          when (not !dropped) && seg.flags.ack && (not seg.flags.fin)
               && String.length seg.payload = 0
               && Tcb.state c = Tcb.Last_ack
               && Tcpfo_util.Seq32.equal seg.ack (Tcb.snd_nxt c) ->
          dropped := true;
          true
        | _ -> false)
  in
  run_repl r ~for_sec:60.0;
  check_bool "the covering ACK was dropped" true !dropped;
  check_bool "client still terminated cleanly" true
    (Tcb.state c = Tcb.Closed);
  check_int "no reset" 0 csink.resets

let test_late_secondary_fin_answered_after_teardown () =
  (* §8: the client closes first; the servers close from CLOSE_WAIT; the
     client's final ACK of the server FIN is withheld from the secondary
     only.  The secondary's TCB retransmits its FIN from LAST_ACK after
     the bridge tore down; the bridge answers with an ACK slipped to the
     secondary, and the secondary's connection terminates cleanly instead
     of dying on retry exhaustion. *)
  let r = make_repl_lan () in
  let server_conns = ref [] in
  Replicated.listen r.repl ~port:80 ~on_accept:(fun ~role tcb ->
      server_conns := (role, tcb) :: !server_conns;
      let got = ref 0 in
      Tcb.set_on_data tcb (fun d ->
          got := !got + String.length d;
          if !got >= 4 then ignore (Tcb.send tcb "done"));
      Tcb.set_on_eof tcb (fun () -> Tcb.close tcb));
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () ->
      ignore (Tcb.send c "ping");
      ignore
        ((Host.clock r.rclient).schedule (Time.ms 10) (fun () -> Tcb.close c)));
  let dropped = ref false in
  let _ =
    drop_rx r.secondary ~pred:(fun pkt ->
        match pkt.Ipv4_packet.payload with
        | Tcp seg
          when (not !dropped) && seg.flags.ack && (not seg.flags.fin)
               && String.length seg.payload = 0
               && Tcpfo_packet.Ipaddr.equal pkt.src (Host.addr r.rclient)
               && (match List.assoc_opt `Secondary !server_conns with
                  | Some s -> Tcb.state s = Tcb.Last_ack
                  | None -> false) ->
          dropped := true;
          true
        | _ -> false)
  in
  run_repl r ~for_sec:90.0;
  check_bool "the final ACK was withheld from the secondary" true !dropped;
  (match List.assoc_opt `Secondary !server_conns with
  | Some s ->
    check_bool "secondary conn terminated cleanly" true
      (Tcb.state s = Tcb.Closed)
  | None -> Alcotest.fail "no secondary conn");
  check_string "client unaffected" "done" (sink_contents csink)

let suite =
  suite
  @ [
      Alcotest.test_case "late client FIN answered after teardown (8)"
        `Quick test_late_client_fin_answered_after_teardown;
      Alcotest.test_case "late secondary FIN answered after teardown (8)"
        `Quick test_late_secondary_fin_answered_after_teardown;
    ]

let test_sequence_wraparound_through_bridge () =
  (* every party's initial sequence number sits just below 2^32, so the
     whole transfer — client stream, both replicas' streams, the wire
     stream, Δseq arithmetic — crosses the wrap boundary *)
  let near_top v = { Tcp_config.default with iss_override = Some v } in
  let r =
    make_repl_lan
      ~client_tcp_config:(near_top 0xFFFF_F000)
      ~primary_tcp_config:(near_top 0xFFFF_FF00)
      ~secondary_tcp_config:(near_top 0xFFFF_8000)
      ()
  in
  let reply = pattern ~tag:81 200_000 in
  let sinks = ref [] in
  echo_service ~request_size:40_000 ~reply_of:(fun _ -> reply)
    ~close_after:true r.repl ~port:80 ~sinks ();
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  let up = pattern ~tag:82 40_000 in
  Tcb.set_on_established c (fun () -> send_all c up);
  run_repl r ~for_sec:60.0;
  check_string "reply exact across 2^32 wrap" reply (sink_contents csink);
  List.iter
    (fun (_, s) -> check_string "upload exact across wrap" up (sink_contents s))
    !sinks

let test_sequence_wraparound_with_failover () =
  let near_top v = { Tcp_config.default with iss_override = Some v } in
  let r =
    make_repl_lan
      ~client_tcp_config:(near_top 0xFFFF_FFF0)
      ~primary_tcp_config:(near_top 0xFFFF_FFFa)
      ~secondary_tcp_config:(near_top 0xFFFF_0000)
      ()
  in
  let reply = pattern ~tag:83 300_000 in
  let sinks = ref [] in
  echo_service ~request_size:3 ~reply_of:(fun _ -> reply) ~close_after:true
    r.repl ~port:80 ~sinks ();
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "get"));
  ignore
    (Engine.schedule (World.engine r.rworld) ~delay:(Time.ms 40) (fun () ->
         Replicated.kill_primary r.repl));
  run_repl r ~for_sec:90.0;
  check_string "failover across the wrap, byte-exact" reply
    (sink_contents csink);
  check_int "no reset" 0 csink.resets

let suite =
  suite
  @ [
      Alcotest.test_case "2^32 wraparound through the bridge" `Quick
        test_sequence_wraparound_through_bridge;
      Alcotest.test_case "2^32 wraparound with failover" `Quick
        test_sequence_wraparound_with_failover;
    ]

(* ---- aborts and the §6 flush ---------------------------------------- *)

let client_rx r =
  tcp_rx_from r.rworld r.rclient ~src:(Replicated.service_addr r.repl)

(* Drop what the secondary diverts to the primary once [pred] holds of a
   segment. *)
let drop_diverted r ~pred =
  ignore
    (drop_rx r.primary ~pred:(fun pkt ->
         Tcpfo_packet.Ipaddr.equal pkt.Ipv4_packet.src (Host.addr r.secondary)
         &&
         match pkt.payload with Tcp seg -> pred seg | Raw _ -> false))

let test_app_abort_resets_client () =
  (* Both replicas' applications abort the connection.  The primary's
     RST reaches the client first, shifted by -Δseq into wire space, so
     it lands exactly at the client's rcv_nxt and resets it; the bridge
     forgets the connection, and the secondary's RST dies there. *)
  let r = make_repl_lan () in
  Replicated.listen r.repl ~port:80 ~on_accept:(fun ~role:_ tcb ->
      Tcb.set_on_data tcb (fun d ->
          if d = "bye" then Tcb.abort tcb
          else ignore (Tcb.send tcb ("R:" ^ d))));
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "one"));
  let rx = client_rx r in
  run_repl ~for_sec:1.0 r;
  check_string "served" "R:one" (sink_contents csink);
  let rcv_nxt = Tcb.rcv_nxt c in
  ignore (Tcb.send c "bye");
  run_repl ~for_sec:1.0 r;
  check_int "on_reset fired" 1 csink.resets;
  (match List.filter (fun (seg : Seg.t) -> seg.flags.rst) (List.map snd (rx ())) with
  | [ rst ] ->
    check_bool "RST at the client's rcv_nxt" true (Seq32.equal rst.seq rcv_nxt)
  | rsts -> check_int "exactly one RST reached the client" 1 (List.length rsts));
  check_int "bridge forgot the connection" 0
    (Primary_bridge.connection_count (Replicated.primary_bridge r.repl))

(* §6 step 1: the secondary's output never reached the primary past
   [pred]; when the secondary dies, everything the primary queued goes to
   the client at once, in MSS-sized segments with the primary's own
   ack. *)
let flush_case ~service ~pred ~client_sends ~expect =
  let r = make_repl_lan () in
  let server = ref None in
  Replicated.listen r.repl ~port:80 ~on_accept:(fun ~role tcb ->
      if role = `Primary then server := Some tcb;
      service tcb);
  drop_diverted r ~pred;
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  let rx = client_rx r in
  let detected_at = ref None in
  Replicated.add_on_event r.repl (function
    | Replicated.Secondary_failure_detected ->
      detected_at := Some (World.now r.rworld)
    | _ -> ());
  List.iteri
    (fun i msg ->
      ignore
        (Engine.schedule (World.engine r.rworld)
           ~delay:(Time.ms (10 * (i + 1)))
           (fun () -> ignore (Tcb.send c msg))))
    client_sends;
  run_repl ~for_sec:1.0 r;
  check_bool "nothing reached the client's application yet" true
    (String.length (sink_contents csink) < String.length expect
    || not csink.eof);
  let before = List.length (rx ()) in
  Replicated.kill_secondary r.repl;
  run_repl ~for_sec:2.0 r;
  check_bool "degraded" true
    (Primary_bridge.degraded (Replicated.primary_bridge r.repl));
  check_string "stream byte-exact" expect (sink_contents csink);
  check_bool "eof" true csink.eof;
  check_int "never reset" 0 csink.resets;
  let p_ack = Tcb.rcv_nxt (Option.get !server) in
  let detected_at = Option.get !detected_at in
  (* the flush, without the primary's TCP retransmissions that may
     follow it through the solo merge path *)
  let flushed =
    List.filteri (fun i _ -> i >= before) (rx ())
    |> List.filter (fun (_, (seg : Seg.t)) -> seg.payload <> "" || seg.flags.fin)
    |> List.fold_left
         (fun acc ((_, (seg : Seg.t)) as x) ->
           if List.exists (fun (_, (s : Seg.t)) -> Seq32.equal s.seq seg.seq) acc
           then acc
           else x :: acc)
         []
    |> List.rev
  in
  let rec check_segments = function
    | [] -> Alcotest.fail "no FIN after the kill"
    | (at, (seg : Seg.t)) :: rest ->
      check_bool "flushed at the failure detection" true
        (at - detected_at < Time.ms 5);
      check_bool "carries the primary's own ack" true
        (seg.flags.ack && Seq32.equal seg.ack p_ack);
      if seg.flags.fin then begin
        check_bool "last flushed segment holds at most an MSS" true
          (String.length seg.payload <= 1460);
        check_int "nothing after the FIN" 0 (List.length rest)
      end
      else begin
        check_int "MSS-sized" 1460 (String.length seg.payload);
        (match rest with
        | (_, next) :: _ ->
          check_bool "contiguous" true
            (Seq32.equal next.Seg.seq (Seq32.add seg.seq 1460))
        | [] -> ());
        check_segments rest
      end
  in
  check_segments flushed;
  List.map snd flushed

let test_flush_unmatched_bytes_then_fin () =
  (* every diverted segment past the handshake is lost: P alone holds
     the reply and its FIN, and the secondary's ack lags P's *)
  let reply = pattern ~tag:91 5000 in
  let flushed =
    flush_case
      ~service:(fun tcb ->
        Tcb.set_on_data tcb (fun _ -> send_all ~close:true tcb reply))
      ~pred:(fun seg -> not seg.flags.syn)
      ~client_sends:[ "get" ] ~expect:reply
  in
  check_int "the reply in four segments, FIN on the last" 4
    (List.length flushed)

let test_flush_bare_fin () =
  (* the replies merge, but the secondary's FIN is lost: P's FIN waits
     alone in its queue and leaves as a bare FIN *)
  let flushed =
    flush_case
      ~service:(fun tcb ->
        Tcb.set_on_data tcb (fun d ->
            if d = "end" then Tcb.close tcb
            else ignore (Tcb.send tcb ("R:" ^ d))))
      ~pred:(fun seg -> seg.flags.fin)
      ~client_sends:[ "get"; "end" ] ~expect:"R:get"
  in
  match flushed with
  | [ fin ] -> check_int "bare FIN" 0 (String.length fin.payload)
  | _ -> check_int "one bare FIN after the kill" 1 (List.length flushed)

let suite =
  suite
  @ [
      Alcotest.test_case "application abort resets the client" `Quick
        test_app_abort_resets_client;
      Alcotest.test_case "6 flush: unmatched bytes, then FIN" `Quick
        test_flush_unmatched_bytes_then_fin;
      Alcotest.test_case "6 flush: bare FIN" `Quick test_flush_bare_fin;
    ]

(* At failover the bridge degrades every connection by folding and
   iterating its keyed table, and the order it visits them in is part of
   the simulation.  The table uses [Hashtbl.hash] with a monomorphic
   [equal], so under any sequence of inserts and removes it must visit
   keys exactly as a generic [Hashtbl] fed the same operations — across
   resizes too. *)
let prop_conn_table_order =
  let module Conns = Primary_bridge.Conns in
  let key =
    QCheck.Gen.(
      map3
        (fun a rp lp -> (Tcpfo_packet.Ipaddr.of_int (0x0a00_0000 + a), rp, lp))
        (int_range 0 40) (int_range 1024 1100) (oneofl [ 80; 443; 8080 ]))
  in
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 400)
        (pair (frequency [ (3, return true); (1, return false) ]) key))
  in
  QCheck.Test.make ~name:"conn table folds in generic Hashtbl order"
    ~count:200 (QCheck.make gen) (fun ops ->
      let keyed = Conns.create 16 and generic = Hashtbl.create 16 in
      List.iteri
        (fun i (insert, k) ->
          if insert then begin
            Conns.replace keyed k i;
            Hashtbl.replace generic k i
          end
          else begin
            Conns.remove keyed k;
            Hashtbl.remove generic k
          end)
        ops;
      let order_k = Conns.fold (fun k v acc -> (k, v) :: acc) keyed [] in
      let order_g = Hashtbl.fold (fun k v acc -> (k, v) :: acc) generic [] in
      let iter_k = ref [] and iter_g = ref [] in
      Conns.iter (fun k _ -> iter_k := k :: !iter_k) keyed;
      Hashtbl.iter (fun k _ -> iter_g := k :: !iter_g) generic;
      order_k = order_g && !iter_k = !iter_g)

(* A service that answers each [size]-byte request from [on_data] with
   "re:" and the request, on both replicas, and closes after the
   client's FIN. *)
let reply_per_request r ~size =
  Replicated.listen r.repl ~port:80 ~on_accept:(fun ~role:_ tcb ->
      let got = Buffer.create 64 in
      Tcb.set_on_data tcb (fun data ->
          Buffer.add_string got data;
          while Buffer.length got >= size do
            let req = Buffer.sub got 0 size in
            let rest = Buffer.sub got size (Buffer.length got - size) in
            Buffer.clear got;
            Buffer.add_string got rest;
            ignore (Tcb.send tcb ("re:" ^ req))
          done);
      Tcb.set_on_eof tcb (fun () -> Tcb.close tcb))

let test_exchange_reemits_no_duplicate_ack () =
  (* requests 150 ms apart, so a delayed ACK would fire between them;
     each replica's reply carries its ACK, so neither sends the pure ACK
     a merged duplicate would be re-emitted for, and the only empty
     segment the bridge builds is the 3.4 advance when both replicas ack
     the client's FIN *)
  let r = make_repl_lan () in
  reply_per_request r ~size:4;
  let from_service =
    tcp_rx_from r.rworld r.rclient ~src:(Replicated.service_addr r.repl)
  in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  let requests = 50 and answered = ref 0 and got = Buffer.create 512 in
  let request i = ignore (Tcb.send c (Printf.sprintf "q%03d" i)) in
  Tcb.set_on_established c (fun () -> request 0);
  Tcb.set_on_data c (fun data ->
      Buffer.add_string got data;
      incr answered;
      if !answered < requests then
        ignore
          ((Host.clock r.rclient).schedule (Time.ms 150) (fun () ->
               request !answered))
      else Tcb.close c);
  run_repl ~for_sec:10.0 r;
  check_int "every request answered" requests !answered;
  check_string "replies in order"
    (String.concat "" (List.init requests (Printf.sprintf "re:q%03d")))
    (Buffer.contents got);
  check_int "one empty ACK: the FIN's joint-ACK advance" 1
    (Tcpfo_obs.Registry.counter_value (World.metrics r.rworld)
       "bridge.primary.empty_acks");
  check_int "one pure ACK reached the client" 1
    (List.length (List.filter (fun (_, seg) -> pure_ack seg)
                    (from_service ())))

let test_client_retransmission_reacked () =
  (* the merged reply is lost, so the client retransmits its request:
     both replicas answer the duplicate with a pure ACK, and the bridge
     re-emits the merged ACK at once, before either replica's own
     retransmission timer fires *)
  let r = make_repl_lan () in
  reply_per_request r ~size:4;
  let service = Replicated.service_addr r.repl in
  let c = Stack.connect (Host.tcp r.rclient) ~remote:(service, 80) () in
  let client_sent = ref [] in
  tap_tx r.rclient ~f:(fun pkt ->
      match pkt.Ipv4_packet.payload with
      | Tcp seg when String.length seg.payload > 0 ->
        client_sent := World.now r.rworld :: !client_sent
      | _ -> ());
  let dropped = ref false in
  let _ =
    drop_rx r.rclient ~pred:(fun pkt ->
        match pkt.Ipv4_packet.payload with
        | Tcp seg when String.length seg.payload > 0 && not !dropped ->
          dropped := true;
          true
        | _ -> false)
  in
  let from_service = tcp_rx_from r.rworld r.rclient ~src:service in
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "ping"));
  let csink = make_sink () in
  Tcb.set_on_data c (fun data -> Buffer.add_string csink.buf data);
  run_repl ~for_sec:5.0 r;
  check_string "reply recovered" "re:ping" (sink_contents csink);
  let resent_at =
    match !client_sent with
    | [ at; _ ] -> at
    | _ -> Alcotest.fail "expected one retransmission of the request"
  in
  match
    List.filter (fun (at, _) -> at > resent_at) (from_service ())
  with
  | (at, seg) :: _ ->
    check_bool "first answer is a pure ACK" true (pure_ack seg);
    check_bool "acks the request" true
      (Seq32.equal seg.ack (Tcb.snd_nxt c));
    check_bool "within a millisecond" true (at - resent_at < Time.ms 1);
    check_bool "counted as an empty ACK" true
      (Tcpfo_obs.Registry.counter_value (World.metrics r.rworld)
         "bridge.primary.empty_acks"
      >= 1)
  | [] -> Alcotest.fail "the retransmission went unanswered"

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_conn_table_order;
      Alcotest.test_case "snoop claims service traffic only (3.1)" `Quick
        test_snoop_claims_service_traffic_only;
      Alcotest.test_case "two pools on one segment: snoop pays own service"
        `Quick test_snoop_pays_only_own_service;
      Alcotest.test_case "50 requests re-emit no duplicate ACK (3.4)" `Quick
        test_exchange_reemits_no_duplicate_ack;
      Alcotest.test_case "client retransmission gets a merged re-ACK" `Quick
        test_client_retransmission_reacked;
    ]

(* ---- the primary's output is read from its send buffer (4) -------- *)

let first_reply = pattern ~tag:95 60_000
let second_reply = pattern ~tag:96 60_000

(* Two 60 KB replies.  The first merges at full speed and opens the
   primary's congestion window; the secondary's application answers the
   second request [lag] later ([None]: never).  Returns the pair and the
   client's sink once the second request has been out 100 ms: the
   primary is then many segments ahead of the secondary, none of them
   emitted to the client. *)
let primary_ahead ~lag =
  let r = make_repl_lan () in
  let p_conn = ref None in
  Replicated.listen r.repl ~port:80 ~on_accept:(fun ~role tcb ->
      if role = `Primary then p_conn := Some tcb;
      Tcb.set_on_data tcb (fun d ->
          if d = "1" then send_all tcb first_reply
          else
            match (role, lag) with
            | `Secondary, Some lag ->
              ignore
                ((Host.clock r.secondary).schedule lag (fun () ->
                     send_all tcb second_reply))
            | `Secondary, None -> ()
            | _ -> send_all tcb second_reply));
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "1"));
  run_repl ~for_sec:1.0 r;
  check_string "first reply merged" first_reply (sink_contents csink);
  ignore (Tcb.send c "2");
  run_repl ~for_sec:0.1 r;
  let p = Option.get !p_conn in
  check_bool "the primary is at least ten segments ahead" true
    (Seq32.diff (Tcb.snd_max p) (Tcb.snd_una p) >= 10 * 1460);
  check_string "none of it emitted" first_reply (sink_contents csink);
  check_int "the bridge holds none of it" 0
    (Primary_bridge.For_testing.held_bytes (Replicated.primary_bridge r.repl));
  (r, csink)

let test_primary_ahead_held_once () =
  let r, csink = primary_ahead ~lag:(Some (Time.ms 150)) in
  run_repl ~for_sec:2.0 r;
  check_string "stream byte-exact once the secondary catches up"
    (first_reply ^ second_reply) (sink_contents csink);
  check_int "never reset" 0 csink.resets;
  check_int "the bridge holds nothing" 0
    (Primary_bridge.For_testing.held_bytes (Replicated.primary_bridge r.repl))

let test_flush_reads_send_buffer () =
  let r, csink = primary_ahead ~lag:None in
  Replicated.kill_secondary r.repl;
  run_repl ~for_sec:2.0 r;
  check_bool "degraded" true
    (Primary_bridge.degraded (Replicated.primary_bridge r.repl));
  check_string "the flush and the solo stream are byte-exact"
    (first_reply ^ second_reply) (sink_contents csink);
  check_int "never reset" 0 csink.resets

let suite =
  suite
  @ [
      Alcotest.test_case "primary ahead: bridge holds no copy (4)" `Quick
        test_primary_ahead_held_once;
      Alcotest.test_case "6 flush reads the primary's send buffer" `Quick
        test_flush_reads_send_buffer;
    ]

(* §8 for every entry: a connection closes, with the server's FIN or
   the client's first, and [kill] decides whether its secondary dies
   mid-transfer (the connection then finishes solo, §6).  The bridge
   tears the entry down as the close completes, so it is lingering, not
   stale, by then; it answers stray FINs for 10 s and is gone after. *)
let teardown_case ~kill ~server_first =
  let r = make_repl_lan () in
  let reply = pattern ~tag:35 200_000 in
  Replicated.listen r.repl ~port:80 ~on_accept:(fun ~role:_ tcb ->
      Tcb.set_on_data tcb (fun _ -> send_all ~close:server_first tcb reply);
      Tcb.set_on_eof tcb (fun () -> if not server_first then Tcb.close tcb));
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "get"));
  let killed = ref false in
  Tcb.set_on_data c (fun d ->
      Buffer.add_string csink.buf d;
      if kill && (not !killed) && Buffer.length csink.buf >= 50_000 then begin
        killed := true;
        Replicated.kill_secondary r.repl
      end;
      if (not server_first) && Buffer.length csink.buf = String.length reply
      then Tcb.close c);
  Tcb.set_on_eof c (fun () ->
      csink.eof <- true;
      if server_first then Tcb.close c);
  let pb = Replicated.primary_bridge r.repl in
  let closed () =
    match Tcb.state c with Tcb.Closed | Tcb.Time_wait -> true | _ -> false
  in
  let budget = ref 5_000 in
  while (not (closed ())) && !budget > 0 do
    World.run r.rworld ~for_:(Time.ms 1);
    decr budget
  done;
  check_bool "client closed" true (closed ());
  check_bool "secondary killed as asked" kill !killed;
  check_bool "solo exactly when killed" kill (Primary_bridge.degraded pb);
  check_string "stream byte-exact" reply (sink_contents csink);
  check_int "never reset" 0 csink.resets;
  World.run r.rworld ~for_:(Time.ms 500);
  check_int "no stale entry after the close" 0 (Primary_bridge.stale_count pb);
  World.run r.rworld ~for_:(Time.ms 9_000);
  check_int "the entry lingers" 1 (Primary_bridge.connection_count pb);
  World.run r.rworld ~for_:(Time.ms 1_000);
  check_int "gone 10 s after teardown" 0 (Primary_bridge.connection_count pb)

let test_solo_server_fin_first () = teardown_case ~kill:true ~server_first:true
let test_solo_client_fin_first () = teardown_case ~kill:true ~server_first:false
let test_merged_server_fin_first () =
  teardown_case ~kill:false ~server_first:true

let test_solo_rst_drops_entry () =
  (* The secondary is dead; then the primary's application aborts.  Its
     RST leaves through the solo merge path, which forgets the entry at
     once instead of keeping it until the client's next segment. *)
  let r = make_repl_lan () in
  let server = ref None in
  Replicated.listen r.repl ~port:80 ~on_accept:(fun ~role tcb ->
      if role = `Primary then server := Some tcb;
      Tcb.set_on_data tcb (fun d -> ignore (Tcb.send tcb ("R:" ^ d))));
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "one"));
  run_repl ~for_sec:0.5 r;
  Replicated.kill_secondary r.repl;
  run_repl ~for_sec:0.5 r;
  let pb = Replicated.primary_bridge r.repl in
  check_bool "degraded" true (Primary_bridge.degraded pb);
  check_string "served" "R:one" (sink_contents csink);
  check_int "one solo entry" 1 (Primary_bridge.connection_count pb);
  Tcb.abort (Option.get !server);
  run_repl ~for_sec:0.1 r;
  check_int "the client was reset" 1 csink.resets;
  check_int "the entry is gone" 0 (Primary_bridge.connection_count pb)

let suite =
  suite
  @ [
      Alcotest.test_case "solo close, server FIN first: reclaimed (6, 8)"
        `Quick test_solo_server_fin_first;
      Alcotest.test_case "solo close, client FIN first: reclaimed (6, 8)"
        `Quick test_solo_client_fin_first;
      Alcotest.test_case "merged close, server FIN first: reclaimed (8)"
        `Quick test_merged_server_fin_first;
      Alcotest.test_case "RST from a solo primary drops the entry (6)" `Quick
        test_solo_rst_drops_entry;
    ]
