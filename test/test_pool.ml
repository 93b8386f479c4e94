(* Tests for the N-replica pool: cascading failover through successive
   primary deaths, standby liveness, rejoin ordering, and pool
   construction errors. *)

module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Topo = Tcpfo_host.Topo
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Replicated = Tcpfo_core.Replicated
module Chain = Tcpfo_core.Chain
module Secondary_bridge = Tcpfo_core.Secondary_bridge
module Failover_config = Tcpfo_core.Failover_config
module Seq32 = Tcpfo_util.Seq32
open Testutil

let port = 5000

(* [n]-replica pool behind one client, built through Topo; events are
   recorded in arrival order. *)
let make_pool ?(n = 3) ?(seed = 11) () =
  let world = World.create ~seed () in
  let names =
    List.init n (fun i ->
        match i with
        | 0 -> "primary"
        | 1 -> "secondary"
        | k -> Printf.sprintf "standby%d" (k - 1))
  in
  let spec =
    (Topo.segment "lan"
    :: Topo.host ~addr:"10.0.0.10" ~seg:"lan" "client"
    :: List.mapi
         (fun i nm ->
           Topo.host ~addr:(Printf.sprintf "10.0.0.%d" (i + 1)) ~seg:"lan" nm)
         names)
    @ [ Topo.group ~members:names "pool" ]
  in
  let topo = Topo.build world spec in
  let repl =
    Replicated.create_pool
      ~replicas:(Topo.group_of topo "pool")
      ~config:Failover_config.default ()
  in
  let events = ref [] in
  Replicated.set_on_event repl (fun e -> events := e :: !events);
  (world, topo, repl, events)

let promoted events =
  List.filter_map
    (function Replicated.Promoted n -> Some n | _ -> None)
    (List.rev !events)

let standby_names repl = List.map Host.name (Replicated.standbys repl)

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

(* One connection, opened before any failure, must survive TWO cascading
   primary deaths byte-exactly: each death promotes the next standby, so
   the client always sits behind a full replica pair. *)
let test_cascading_double_failover () =
  let world, topo, repl, events = make_pool ~n:4 () in
  Replicated.listen repl ~port ~on_accept:(fun ~role:_ tcb ->
      Tcb.set_on_data tcb (fun d -> ignore (Tcb.send tcb ("R:" ^ d)));
      Tcb.set_on_eof tcb (fun () -> Tcb.close tcb));
  let client = Topo.host_of topo "client" in
  let sink = make_sink () in
  let c =
    Stack.connect (Host.tcp client)
      ~remote:(Replicated.service_addr repl, port)
      ()
  in
  wire_sink sink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "req"));
  World.run world ~for_:(Time.ms 100);
  Replicated.kill_primary repl;
  World.run world ~for_:(Time.sec 3.0);
  ignore (Tcb.send c "mid1");
  World.run world ~for_:(Time.sec 1.0);
  Replicated.kill_primary repl;
  World.run world ~for_:(Time.sec 3.0);
  ignore (Tcb.send c "mid2");
  World.run world ~for_:(Time.sec 1.0);
  Tcb.close c;
  World.run world ~for_:(Time.sec 2.0);
  check_string "stream byte-exact through both failovers" "R:reqR:mid1R:mid2"
    (sink_contents sink);
  check_int "no resets" 0 sink.resets;
  check_bool "pair whole again" true (Replicated.status repl = `Normal);
  check_bool "standbys drained" true (Replicated.standbys repl = []);
  check_bool "promotions in pool order" true
    (promoted events = [ "standby1"; "standby2" ]);
  check_int "no transfers stranded" 0 (Replicated.pending_transfers repl);
  check_int "no transfer failures" 0 (Replicated.transfer_failures repl)

(* A standby dying must be noticed by its liveness watcher and dropped
   from the pool without disturbing the active pair. *)
let test_standby_loss_detected () =
  let world, _topo, repl, events = make_pool ~n:3 () in
  World.run world ~for_:(Time.ms 200);
  (match Replicated.standbys repl with
  | [ s ] -> Host.kill s
  | l -> Alcotest.failf "expected one standby, got %d" (List.length l));
  World.run world ~for_:(Time.sec 3.0);
  check_bool "standby dropped" true (Replicated.standbys repl = []);
  check_bool "loss event emitted" true
    (List.exists
       (function Replicated.Standby_lost "standby1" -> true | _ -> false)
       !events);
  check_bool "active pair untouched" true (Replicated.status repl = `Normal)

(* rejoin queues repaired hosts at the BACK of the pool, and rejects dead
   or already-pooled hosts. *)
let test_rejoin_ordering_and_errors () =
  let world, topo, repl, _events = make_pool ~n:3 () in
  let lan = Topo.segment_of topo "lan" in
  World.run world ~for_:(Time.ms 100);
  let fresh = World.add_host world lan ~name:"fresh" ~addr:"10.0.0.9" () in
  World.warm_arp (fresh :: Topo.hosts topo);
  Replicated.rejoin repl fresh;
  check_bool "rejoined at the back" true
    (standby_names repl = [ "standby1"; "fresh" ]);
  expect_invalid "double rejoin" (fun () -> Replicated.rejoin repl fresh);
  let corpse = World.add_host world lan ~name:"corpse" ~addr:"10.0.0.8" () in
  Host.kill corpse;
  expect_invalid "dead host rejoin" (fun () -> Replicated.rejoin repl corpse)

(* With no standby left, rejoin into a degraded pair pairs immediately
   with the survivor (the reintegrate path). *)
let test_rejoin_into_degraded_pair () =
  let world, topo, repl, events = make_pool ~n:2 () in
  World.run world ~for_:(Time.ms 100);
  Replicated.kill_secondary repl;
  World.run world ~for_:(Time.sec 2.0);
  check_bool "pair degraded" true (Replicated.status repl = `Secondary_failed);
  let lan = Topo.segment_of topo "lan" in
  let fresh = World.add_host world lan ~name:"fresh" ~addr:"10.0.0.9" () in
  World.warm_arp (fresh :: Topo.hosts topo);
  Replicated.rejoin repl fresh;
  World.run world ~for_:(Time.sec 1.0);
  check_bool "pair repaired immediately" true
    (Replicated.status repl = `Normal);
  check_bool "no residual standby" true (Replicated.standbys repl = []);
  check_bool "rejoin event emitted" true
    (List.exists
       (function Replicated.Rejoined "fresh" -> true | _ -> false)
       !events)

let reply_service tcb =
  Tcb.set_on_data tcb (fun d -> ignore (Tcb.send tcb ("R:" ^ d)));
  Tcb.set_on_eof tcb (fun () -> Tcb.close tcb)

(* A host that rejoins while the §5 takeover is still in flight waits on
   the standby list; the takeover's completion promotes it, and the
   one live connection is re-replicated onto it. *)
let test_rejoin_during_takeover () =
  let world, topo, repl, events = make_pool ~n:2 () in
  Replicated.listen repl ~port ~on_accept:(fun ~role:_ -> reply_service);
  let lan = Topo.segment_of topo "lan" in
  let fresh = World.add_host world lan ~name:"fresh" ~addr:"10.0.0.9" () in
  World.warm_arp (fresh :: Topo.hosts topo);
  let client = Topo.host_of topo "client" in
  let sink = make_sink () in
  let c =
    Stack.connect (Host.tcp client)
      ~remote:(Replicated.service_addr repl, port)
      ()
  in
  wire_sink sink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "req"));
  let queued = ref false in
  (* rejoin halfway through the takeover's processing time *)
  Replicated.add_on_event repl (function
    | Replicated.Primary_failure_detected ->
      ignore
        ((Host.clock fresh).schedule
           (Failover_config.default.takeover_processing / 2)
           (fun () ->
             check_bool "takeover in flight" false
               (Secondary_bridge.taken_over (Replicated.secondary_bridge repl));
             Replicated.rejoin repl fresh;
             queued :=
               Replicated.status repl = `Primary_failed
               && standby_names repl = [ "fresh" ]))
    | _ -> ());
  World.run world ~for_:(Time.ms 100);
  Replicated.kill_primary repl;
  World.run world ~for_:(Time.sec 2.0);
  check_bool "queued on the standby list" true !queued;
  ignore (Tcb.send c "mid");
  World.run world ~for_:(Time.sec 1.0);
  Tcb.close c;
  World.run world ~for_:(Time.sec 2.0);
  let after_rejoin =
    List.filter_map
      (function
        | Replicated.Takeover_complete -> Some "takeover"
        | Replicated.Promoted n -> Some ("promoted " ^ n)
        | Replicated.Reintegrated -> Some "reintegrated"
        | Replicated.Transfers_complete n -> Some (Printf.sprintf "moved %d" n)
        | _ -> None)
      (List.rev !events)
  in
  Alcotest.(check (list string))
    "completion promotes the queued host"
    [ "takeover"; "promoted fresh"; "reintegrated"; "moved 1" ]
    after_rejoin;
  check_string "stream byte-exact" "R:reqR:mid" (sink_contents sink);
  check_int "no resets" 0 sink.resets;
  check_bool "pair whole again" true (Replicated.status repl = `Normal);
  check_bool "standby list empty" true (Replicated.standbys repl = [])

(* The client-side segment trace — arrival time, sequence number and
   payload of every segment from the service address — of one world
   run through a primary kill and a rejoin, behind either front end,
   and the byte stream the client's TCP delivered. *)
let failover_trace ~chain =
  let world = World.create ~seed:5 () in
  let lan = World.make_lan world () in
  let add name addr = World.add_host world lan ~name ~addr () in
  let client = add "client" "10.0.0.10" in
  let primary = add "primary" "10.0.0.1" in
  let secondary = add "secondary" "10.0.0.2" in
  let fresh = add "fresh" "10.0.0.3" in
  World.warm_arp [ client; primary; secondary; fresh ];
  let config = Failover_config.default in
  let kill_primary, rejoin =
    if chain then begin
      let c = Chain.create ~replicas:[ primary; secondary ] ~config () in
      Chain.listen c ~port ~on_accept:(fun ~replica:_ -> reply_service);
      ((fun () -> Chain.kill c 0), fun h -> ignore (Chain.rejoin c h))
    end
    else begin
      let r = Replicated.create ~primary ~secondary ~config () in
      Replicated.listen r ~port ~on_accept:(fun ~role:_ -> reply_service);
      ((fun () -> Replicated.kill_primary r), Replicated.rejoin r)
    end
  in
  let rx = tcp_rx_from world client ~src:(Host.addr primary) in
  let c = Stack.connect (Host.tcp client) ~remote:(Host.addr primary, port) () in
  let delivered = Buffer.create 256 in
  Tcb.set_on_data c (Buffer.add_string delivered);
  (* a request every 100 ms, before, during and after the failover and
     the rejoin's hot state transfer *)
  for i = 0 to 39 do
    ignore
      ((Host.clock client).schedule
         (Time.ms (50 + (100 * i)))
         (fun () -> ignore (Tcb.send c (Printf.sprintf "k%02d" i))))
  done;
  World.run world ~for_:(Time.ms 1000);
  kill_primary ();
  World.run world ~for_:(Time.ms 1000);
  rejoin fresh;
  World.run world ~for_:(Time.ms 2100);
  Tcb.close c;
  World.run world ~for_:(Time.sec 2.0);
  ( List.map
      (fun (at, (seg : Tcpfo_packet.Tcp_segment.t)) ->
        (at, Seq32.to_int seg.seq, seg.payload))
      (rx ()),
    Buffer.contents delivered )

(* A pair and a two-replica chain are one orchestrator: the client sees
   the same segments at the same instants through a kill and a rejoin.
   The takeover kick may resend a reply the client holds but has not
   acked yet (its ACK is delayed), so the wire may carry a reply twice;
   the client reads each once, and a resend repeats its first
   transmission exactly. *)
let test_pair_is_two_replica_chain () =
  let pair, delivered = failover_trace ~chain:false in
  check_string "each reply delivered once, byte-exact"
    (String.concat "" (List.init 40 (Printf.sprintf "R:k%02d")))
    delivered;
  let first = Hashtbl.create 64 and frontier = ref None in
  List.iter
    (fun (_, seq, payload) ->
      if payload <> "" then
        match Hashtbl.find_opt first seq with
        | Some p ->
          check_string "a resend repeats its first transmission" p payload
        | None ->
          (match !frontier with
          | Some f ->
            check_bool "new data starts at the frontier" true
              ((seq - f) land 0xFFFF_FFFF = 0)
          | None -> ());
          Hashtbl.add first seq payload;
          frontier := Some (seq + String.length payload))
    pair;
  Alcotest.(check (list (triple int int string)))
    "same client-side segment trace" pair
    (fst (failover_trace ~chain:true))

let test_create_pool_rejects () =
  let world = World.create () in
  let lan = World.make_lan world () in
  let a = World.add_host world lan ~name:"a" ~addr:"10.0.0.1" () in
  let b = World.add_host world lan ~name:"b" ~addr:"10.0.0.2" () in
  expect_invalid "single replica" (fun () ->
      Replicated.create_pool ~replicas:[ a ] ~config:Failover_config.default
        ());
  expect_invalid "duplicate replica" (fun () ->
      Replicated.create_pool ~replicas:[ a; b; a ]
        ~config:Failover_config.default ());
  Host.kill b;
  expect_invalid "dead replica" (fun () ->
      Replicated.create_pool ~replicas:[ a; b ]
        ~config:Failover_config.default ())

let suite =
  [
    Alcotest.test_case "cascading double failover is byte-exact" `Quick
      test_cascading_double_failover;
    Alcotest.test_case "standby loss detected and dropped" `Quick
      test_standby_loss_detected;
    Alcotest.test_case "rejoin ordering and errors" `Quick
      test_rejoin_ordering_and_errors;
    Alcotest.test_case "rejoin into degraded pair" `Quick
      test_rejoin_into_degraded_pair;
    Alcotest.test_case "rejoin during an in-flight takeover" `Quick
      test_rejoin_during_takeover;
    Alcotest.test_case "pair and two-replica chain trace alike" `Quick
      test_pair_is_two_replica_chain;
    Alcotest.test_case "create_pool rejects bad pools" `Quick
      test_create_pool_rejects;
  ]
