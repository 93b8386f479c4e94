(* The takeover kick (DESIGN.md 7.22): when a survivor's output path
   changes, its service connections stop waiting for their RTOs. *)

module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Chain = Tcpfo_core.Chain
module Replicated = Tcpfo_core.Replicated
module Failover_config = Tcpfo_core.Failover_config
module Secondary_bridge = Tcpfo_core.Secondary_bridge
open Testutil

let config = Failover_config.default

(* what the client may wait, from the kill, for the stream to resume:
   detection, the §5 reconfiguration and a 20 ms margin *)
let stall_bound =
  config.detector_timeout + config.takeover_processing + Time.ms 20

(* Record the longest gap between consecutive deliveries on [c]. *)
let stall_meter world c ~on_data =
  let last = ref None and worst = ref 0 in
  Tcb.set_on_data c (fun d ->
      let now = World.now world in
      Option.iter (fun t -> worst := Int.max !worst (now - t)) !last;
      last := Some now;
      on_data d);
  worst

let ms t = Printf.sprintf "%.2f ms" (float_of_int t /. 1e6)

(* E6's shape: a 400 kB download through a pair whose primary dies at
   [kill_at]. *)
let download_stall ~kill_at =
  let reply = pattern ~tag:71 400_000 in
  let r = make_repl_lan ~seed:6001 () in
  let sinks = ref [] in
  echo_service ~request_size:3 ~reply_of:(fun _ -> reply) ~close_after:true
    r.repl ~port:80 ~sinks ();
  let got = Buffer.create 400_000 in
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  let stall = stall_meter r.rworld c ~on_data:(Buffer.add_string got) in
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "get"));
  ignore
    (Engine.schedule (World.engine r.rworld) ~delay:kill_at (fun () ->
         Replicated.kill_primary r.repl));
  World.run r.rworld ~for_:(Time.sec 10.0);
  check_string "stream byte-exact" reply (Buffer.contents got);
  !stall

let test_download_stall () =
  List.iter
    (fun kill_ms ->
      let stall = download_stall ~kill_at:(Time.ms kill_ms) in
      if stall > stall_bound then
        Alcotest.failf "kill at %d ms: stall %s > bound %s" kill_ms (ms stall)
          (ms stall_bound))
    [ 5; 20; 50 ]

(* An upload that gets no reply until it ends: at the takeover the
   survivor has nothing in flight, and only its ACK tells the client
   that the bytes it keeps retransmitting have arrived. *)
let test_upload_released_by_ack () =
  let data = pattern ~tag:72 400_000 in
  let r = make_repl_lan ~seed:6002 () in
  let sinks = ref [] in
  echo_service ~request_size:(String.length data) ~reply_of:(fun _ -> "ok")
    ~close_after:true r.repl ~port:80 ~sinks ();
  let c =
    Stack.connect (Host.tcp r.rclient)
      ~remote:(Replicated.service_addr r.repl, 80)
      ()
  in
  let csink = make_sink () in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> send_all c data);
  (* every segment the client receives from the service address *)
  let rx =
    tcp_rx_from r.rworld r.rclient ~src:(Replicated.service_addr r.repl)
  in
  let kill_at = Time.ms 20 in
  ignore
    (Engine.schedule (World.engine r.rworld) ~delay:kill_at (fun () ->
         Replicated.kill_primary r.repl));
  World.run r.rworld ~for_:(Time.sec 10.0);
  check_string "survivor's reply" "ok" (sink_contents csink);
  (match List.assoc_opt `Secondary !sinks with
  | Some s -> check_string "survivor holds the upload" data (sink_contents s)
  | None -> Alcotest.fail "survivor never accepted");
  let first_after =
    List.find_map
      (fun (at, _) -> if at > kill_at then Some at else None)
      (rx ())
  in
  match first_after with
  | None -> Alcotest.fail "nothing reached the client after the kill"
  | Some at ->
    if at - kill_at > stall_bound then
      Alcotest.failf "first segment %s after the kill > bound %s"
        (ms (at - kill_at)) (ms stall_bound)

(* §7.2: the replicas' client-role connection to an unreplicated back
   end keeps its own timer — its path to the back end did not move. *)
let test_backend_not_kicked () =
  let r = make_repl_lan ~seed:6003 () in
  let backend = r.rclient in
  Stack.listen (Host.tcp backend) ~port:7000 ~on_accept:(fun _ -> ());
  let survivor = ref None in
  Replicated.connect_backend r.repl
    ~remote:(Host.addr backend, 7000)
    ~setup:(fun ~role tcb ->
      if role = `Secondary then survivor := Some tcb;
      (* data in flight at the kill: the back end freezes first *)
      ignore
        ((Host.clock (if role = `Primary then r.primary else r.secondary))
           .schedule (Time.ms 20) (fun () -> ignore (Tcb.send tcb "query"))))
    ();
  ignore
    (Engine.schedule (World.engine r.rworld) ~delay:(Time.ms 15) (fun () ->
         Host.pause backend));
  ignore
    (Engine.schedule (World.engine r.rworld) ~delay:(Time.ms 25) (fun () ->
         Replicated.kill_primary r.repl));
  (* past the takeover, well before the connection's own 200 ms RTO *)
  World.run r.rworld ~for_:(Time.ms 150);
  check_bool "taken over" true
    (Secondary_bridge.taken_over (Replicated.secondary_bridge r.repl));
  match !survivor with
  | None -> Alcotest.fail "no backend connection on the survivor"
  | Some tcb ->
    check_bool "query in flight" true
      (Tcpfo_util.Seq32.lt (Tcb.snd_una tcb) (Tcb.snd_max tcb));
    check_int "no retransmission yet" 0 (Tcb.retransmits tcb)

(* A 3-chain whose middle replica dies: the tail re-diverts to the head
   and resends at once, so the client's stall is about the detector's. *)
let test_chain_middle_kill () =
  let world = World.create ~seed:6004 () in
  let lan = World.make_lan world () in
  let client = World.add_host world lan ~name:"client" ~addr:"10.0.0.10" () in
  let hosts =
    List.init 3 (fun i ->
        World.add_host world lan
          ~name:(Printf.sprintf "replica%d" i)
          ~addr:(Printf.sprintf "10.0.0.%d" (i + 1))
          ())
  in
  World.warm_arp (client :: hosts);
  let chain = Chain.create ~replicas:hosts ~config () in
  let reply = pattern ~tag:73 256_000 in
  Chain.listen chain ~port:80 ~on_accept:(fun ~replica:_ tcb ->
      Tcb.set_on_data tcb (fun _ -> send_all ~close:true tcb reply));
  let events = ref [] in
  Chain.set_on_event chain (fun e -> events := e :: !events);
  let got = Buffer.create 256_000 in
  let c =
    Stack.connect (Host.tcp client) ~remote:(Chain.service_addr chain, 80) ()
  in
  let stall = stall_meter world c ~on_data:(Buffer.add_string got) in
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "get"));
  ignore
    (Engine.schedule (World.engine world) ~delay:(Time.ms 20) (fun () ->
         Chain.kill chain 1));
  World.run world ~for_:(Time.sec 10.0);
  check_string "stream byte-exact" reply (Buffer.contents got);
  check_bool "tail re-diverted to the head" true
    (List.mem (Chain.Retargeted (2, 0)) !events);
  if !stall > stall_bound then
    Alcotest.failf "stall %s > bound %s" (ms !stall) (ms stall_bound)

(* The walk over 2,000 connections with data in flight is paced through
   the survivor's CPU queue: its heartbeats keep flowing, so neither the
   promoted standby nor the one still cold is declared dead. *)
let test_wide_kick_keeps_heartbeats () =
  let world = World.create ~seed:6005 () in
  let lan = World.make_lan world () in
  let add name addr = World.add_host world lan ~name ~addr () in
  let client = add "client" "10.0.0.10" in
  let primary = add "primary" "10.0.0.1" in
  let secondary = add "secondary" "10.0.0.2" in
  let standbys = [ add "standby1" "10.0.0.3"; add "standby2" "10.0.0.4" ] in
  World.warm_arp (client :: primary :: secondary :: standbys);
  let repl =
    Replicated.create_pool ~replicas:(primary :: secondary :: standbys)
      ~config ()
  in
  (* The client stops acknowledging at [quiet].  Each request names its
     slot, and both replicas answer in slot order, 50 us apart, so no
     burst precedes the kill and every answer is in flight when the
     primary dies. *)
  let n = 2000 and quiet = Time.ms 900 and slot = Time.us 50 in
  Replicated.listen repl ~port:80 ~on_accept:(fun ~role tcb ->
      let clock = Host.clock (if role = `Primary then primary else secondary) in
      Tcb.set_on_data tcb (fun req ->
          let at = quiet + Time.ms 1 + (int_of_string req * slot) in
          ignore
            (clock.schedule (at - clock.now ()) (fun () ->
                 ignore (Tcb.send tcb "reply")))));
  let failures = ref [] and taken_over = ref false in
  Replicated.set_on_event repl (function
    | ( Replicated.Primary_failure_detected
      | Replicated.Secondary_failure_detected
      | Replicated.Standby_lost _ ) as e ->
      failures := Replicated.event_to_string e :: !failures
    | Replicated.Takeover_complete -> taken_over := true
    | _ -> ());
  let conns = ref [] in
  for i = 0 to n - 1 do
    ignore
      ((Host.clock client).schedule (Time.us (200 * i)) (fun () ->
           let c =
             Stack.connect (Host.tcp client)
               ~remote:(Replicated.service_addr repl, 80)
               ()
           in
           Tcb.set_on_established c (fun () ->
               ignore (Tcb.send c (Printf.sprintf "%04d" i)));
           conns := c :: !conns))
  done;
  World.run world ~for_:quiet;
  check_int "all established" n
    (List.length
       (List.filter (fun c -> Tcb.state c = Tcb.Established) !conns));
  Host.pause client;
  World.run world ~for_:(Time.ms 1 + (n * slot) + Time.ms 1);
  Replicated.kill_primary repl;
  World.run world ~for_:(Time.ms 400);
  check_bool "taken over" true !taken_over;
  Alcotest.(check (list string))
    "no failure past the primary's"
    [ Replicated.event_to_string Replicated.Primary_failure_detected ]
    (List.rev !failures)

let suite =
  [
    Alcotest.test_case "download stall within detector + takeover" `Quick
      test_download_stall;
    Alcotest.test_case "idle survivor's ACK releases an upload" `Quick
      test_upload_released_by_ack;
    Alcotest.test_case "backend connection not kicked" `Quick
      test_backend_not_kicked;
    Alcotest.test_case "chain middle kill re-diverts and kicks" `Quick
      test_chain_middle_kill;
    Alcotest.test_case "2,000-connection kick keeps heartbeats" `Quick
      test_wide_kick_keeps_heartbeats;
  ]
