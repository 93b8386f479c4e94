(* Daisy-chained replication (the paper's §1 future work): three (and
   more) replicas, arbitrary failure sequences. *)

module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Tcp_config = Tcpfo_tcp.Tcp_config
module Chain = Tcpfo_core.Chain
module Failover_config = Tcpfo_core.Failover_config
open Testutil

type chain_lan = {
  cworld : World.t;
  clan : Tcpfo_net.Medium.t;
  cclient : Host.t;
  chain : Chain.t;
  hosts : Host.t list;
}

let make_chain ?seed ?(n = 3) ?configs () =
  let world = World.create ?seed () in
  let lan = World.make_lan world () in
  let client = World.add_host world lan ~name:"client" ~addr:"10.0.0.10" () in
  let hosts =
    List.init n (fun i ->
        let tcp_config =
          match configs with Some f -> Some (f i) | None -> None
        in
        World.add_host world lan
          ~name:(Printf.sprintf "replica%d" i)
          ~addr:(Printf.sprintf "10.0.0.%d" (i + 1))
          ?tcp_config ())
  in
  World.warm_arp (client :: hosts);
  let chain =
    Chain.create ~replicas:hosts ~config:Failover_config.default ()
  in
  { cworld = world; clan = lan; cclient = client; chain; hosts }

(* install the reply service; returns per-replica request sinks *)
let serve c ~reply =
  let sinks = Hashtbl.create 4 in
  Chain.listen c.chain ~port:80 ~on_accept:(fun ~replica tcb ->
      let buf = Buffer.create 64 in
      Hashtbl.replace sinks replica buf;
      Tcb.set_on_data tcb (fun d ->
          Buffer.add_string buf d;
          if Buffer.length buf = 3 then begin
            let off = ref 0 in
            let size = String.length reply in
            let rec pump () =
              if !off < size then begin
                let want = min 32768 (size - !off) in
                let n = Tcb.send tcb (String.sub reply !off want) in
                off := !off + n;
                if n < want then Tcb.set_on_drain tcb pump else pump ()
              end
              else Tcb.close tcb
            in
            pump ()
          end);
      Tcb.set_on_eof tcb (fun () -> Tcb.close tcb));
  sinks

let download ?(kills = []) ?(reply_size = 200_000) ?seed ?n ?configs () =
  let c = make_chain ?seed ?n ?configs () in
  let reply = pattern ~tag:55 reply_size in
  let sinks = serve c ~reply in
  let csink = make_sink () in
  let conn =
    Stack.connect (Host.tcp c.cclient)
      ~remote:(Chain.service_addr c.chain, 80)
      ()
  in
  wire_sink csink conn;
  Tcb.set_on_established conn (fun () -> ignore (Tcb.send conn "get"));
  List.iter
    (fun (at, idx) ->
      ignore
        (Engine.schedule (World.engine c.cworld) ~delay:at (fun () ->
             Chain.kill c.chain idx)))
    kills;
  World.run c.cworld ~for_:(Time.sec 120.0);
  (c, reply, csink, sinks, conn)

let test_three_replica_fault_free () =
  let c, reply, csink, sinks, _ = download () in
  check_string "reply exact through 3-way chain" reply (sink_contents csink);
  check_bool "eof" true csink.eof;
  check_int "all three replicas saw the request" 3 (Hashtbl.length sinks);
  Hashtbl.iter
    (fun _ buf -> check_string "request replicated" "get" (Buffer.contents buf))
    sinks;
  Alcotest.(check (list int)) "all alive" [ 0; 1; 2 ] (Chain.alive c.chain)

let test_chain_mss_minimum () =
  (* the merged SYN must carry the minimum MSS of the whole chain *)
  let mss_of = function 0 -> 1460 | 1 -> 1200 | _ -> 900 in
  let c =
    make_chain ~configs:(fun i -> { Tcp_config.default with mss = mss_of i }) ()
  in
  let _ = serve c ~reply:"ok" in
  let conn =
    Stack.connect (Host.tcp c.cclient)
      ~remote:(Chain.service_addr c.chain, 80)
      ()
  in
  World.run c.cworld ~for_:(Time.sec 1.0);
  check_int "min MSS across three replicas" 900 (Tcb.effective_mss conn)

let test_head_dies () =
  let c, reply, csink, _, _ =
    download ~kills:[ (Time.ms 30, 0) ] ()
  in
  check_string "stream exact after head death" reply (sink_contents csink);
  check_int "no reset" 0 csink.resets;
  check_int "replica 1 promoted" 1 (Chain.head c.chain)

let test_mid_dies () =
  let c, reply, csink, _, _ =
    download ~kills:[ (Time.ms 30, 1) ] ()
  in
  check_string "stream exact after middle death" reply (sink_contents csink);
  check_int "no reset" 0 csink.resets;
  check_int "head unchanged" 0 (Chain.head c.chain);
  Alcotest.(check (list int)) "live chain" [ 0; 2 ] (Chain.alive c.chain)

let test_tail_dies () =
  let c, reply, csink, _, _ =
    download ~kills:[ (Time.ms 30, 2) ] ()
  in
  check_string "stream exact after tail death" reply (sink_contents csink);
  check_int "no reset" 0 csink.resets;
  Alcotest.(check (list int)) "live chain" [ 0; 1 ] (Chain.alive c.chain)

let test_two_sequential_deaths_head_then_head () =
  (* head dies; the promoted middle dies; the original tail serves alone *)
  let c, reply, csink, _, _ =
    download
      ~kills:[ (Time.ms 30, 0); (Time.ms 900, 1) ]
      ~reply_size:600_000 ()
  in
  check_string "stream exact after two failovers" reply
    (sink_contents csink);
  check_int "no reset" 0 csink.resets;
  Alcotest.(check (list int)) "single survivor" [ 2 ] (Chain.alive c.chain)

let test_two_sequential_deaths_tail_then_head () =
  let c, reply, csink, _, _ =
    download
      ~kills:[ (Time.ms 30, 2); (Time.ms 900, 0) ]
      ~reply_size:600_000 ()
  in
  check_string "stream exact (tail then head)" reply (sink_contents csink);
  Alcotest.(check (list int)) "middle survives" [ 1 ] (Chain.alive c.chain)

let test_upload_replicated_to_all () =
  let c = make_chain () in
  let data = pattern ~tag:56 150_000 in
  let sinks = Hashtbl.create 4 in
  Chain.listen c.chain ~port:80 ~on_accept:(fun ~replica tcb ->
      let buf = Buffer.create 64 in
      Hashtbl.replace sinks replica buf;
      Tcb.set_on_data tcb (fun d -> Buffer.add_string buf d);
      Tcb.set_on_eof tcb (fun () -> Tcb.close tcb));
  let conn =
    Stack.connect (Host.tcp c.cclient)
      ~remote:(Chain.service_addr c.chain, 80)
      ()
  in
  Tcb.set_on_established conn (fun () -> send_all ~close:true conn data);
  World.run c.cworld ~for_:(Time.sec 60.0);
  check_int "three sinks" 3 (Hashtbl.length sinks);
  Hashtbl.iter
    (fun i buf ->
      check_string
        (Printf.sprintf "replica %d holds the full upload" i)
        data (Buffer.contents buf))
    sinks

let test_four_replica_chain () =
  let c, reply, csink, sinks, _ =
    download ~n:4 ~kills:[ (Time.ms 30, 0) ] ()
  in
  check_string "4-chain stream exact after head death" reply
    (sink_contents csink);
  check_int "four replicas accepted" 4 (Hashtbl.length sinks);
  check_int "replica 1 promoted" 1 (Chain.head c.chain)

(* A 4-chain loses one replica 10 ms into a 200 KB download.  Killing
   replica 1 leaves replica 2 merging in the middle with a dead upstream:
   it must divert to replica 0 instead. *)
let test_four_chain_any_single_death () =
  List.iter
    (fun victim ->
      let c, reply, csink, _, _ =
        download ~n:4 ~kills:[ (Time.ms 10, victim) ] ()
      in
      let label what = Printf.sprintf "replica %d killed: %s" victim what in
      check_int (label "bytes") (String.length reply)
        (String.length (sink_contents csink));
      check_string (label "stream exact") reply (sink_contents csink);
      check_bool (label "eof") true csink.eof;
      check_int (label "no reset") 0 csink.resets;
      check_bool (label "victim out of the chain") false
        (List.mem victim (Chain.alive c.chain)))
    [ 1; 0; 2; 3 ]

let prop_chain_any_single_failure =
  QCheck.Test.make ~name:"3-chain stream exact for any victim and time"
    ~count:9
    QCheck.(pair (int_range 0 2) (int_range 1_000 120_000))
    (fun (victim, kill_us) ->
      let _, reply, csink, _, _ =
        download ~seed:(victim * 1000 + kill_us)
          ~kills:[ (Tcpfo_sim.Time.us kill_us, victim) ]
          ()
      in
      sink_contents csink = reply && csink.resets = 0 && csink.eof)

let suite =
  [
    Alcotest.test_case "three replicas, fault-free" `Quick
      test_three_replica_fault_free;
    Alcotest.test_case "merged SYN carries chain-wide min MSS" `Quick
      test_chain_mss_minimum;
    Alcotest.test_case "head dies: next replica promotes" `Quick
      test_head_dies;
    Alcotest.test_case "middle dies: tail re-diverts" `Quick test_mid_dies;
    Alcotest.test_case "tail dies: middle degrades (6)" `Quick
      test_tail_dies;
    Alcotest.test_case "two deaths: head then new head" `Quick
      test_two_sequential_deaths_head_then_head;
    Alcotest.test_case "two deaths: tail then head" `Quick
      test_two_sequential_deaths_tail_then_head;
    Alcotest.test_case "upload reaches every replica" `Quick
      test_upload_replicated_to_all;
    Alcotest.test_case "four-replica chain" `Quick test_four_replica_chain;
    Alcotest.test_case "4-chain: any single death, middle re-diverts" `Quick
      test_four_chain_any_single_death;
    QCheck_alcotest.to_alcotest prop_chain_any_single_failure;
  ]

let test_chain_server_initiated () =
  (* §7.2 through a 3-chain: all three replicas open one logical
     connection to an unreplicated back end; the back end sees exactly
     one; the session survives the head's death *)
  let world = World.create () in
  let lan = World.make_lan world () in
  let hosts =
    List.init 3 (fun i ->
        World.add_host world lan
          ~name:(Printf.sprintf "replica%d" i)
          ~addr:(Printf.sprintf "10.0.0.%d" (i + 1))
          ())
  in
  let backend = World.add_host world lan ~name:"backend" ~addr:"10.0.0.9" () in
  World.warm_arp (backend :: hosts);
  let chain = Chain.create ~replicas:hosts ~config:Failover_config.default () in
  let accepted = ref 0 in
  let bsink = make_sink () in
  Stack.listen (Host.tcp backend) ~port:5432 ~on_accept:(fun tcb ->
      incr accepted;
      wire_sink bsink tcb;
      Tcb.set_on_data tcb (fun d ->
          Buffer.add_string bsink.buf d;
          ignore (Tcb.send tcb ("ok:" ^ d))));
  let sinks = ref [] in
  Chain.connect_backend chain ~remote:(Host.addr backend, 5432)
    ~setup:(fun ~replica tcb ->
      let sink = make_sink () in
      sinks := (replica, sink, tcb) :: !sinks;
      wire_sink sink tcb;
      Tcb.set_on_established tcb (fun () -> ignore (Tcb.send tcb "q1")))
    ();
  World.run world ~for_:(Time.sec 2.0);
  check_int "backend accepted exactly one connection" 1 !accepted;
  check_string "backend got one q1" "q1" (sink_contents bsink);
  List.iter
    (fun (_, sink, _) ->
      check_string "every replica got the reply" "ok:q1" (sink_contents sink))
    !sinks;
  (* kill the head; survivors keep the backend session *)
  Chain.kill chain 0;
  World.run world ~for_:(Time.sec 2.0);
  List.iter
    (fun (replica, _, tcb) ->
      if replica <> 0 then ignore (Tcb.send tcb "q2"))
    !sinks;
  World.run world ~for_:(Time.sec 5.0);
  check_string "session continued after head death" "q1q2"
    (sink_contents bsink);
  check_int "still a single backend connection" 1 !accepted

(* ---- rejoin: a repaired host re-enters at the tail -------------------- *)

let test_chain_rejoin_restores_three_tiers () =
  (* head dies mid-download; a repaired host rejoins at the tail by hot
     state transfer; then the promoted head dies too.  The rejoined tail
     must carry the stream to completion byte-exactly — the chain is
     fully repairable, not merely survivable. *)
  let c = make_chain () in
  let reply = pattern ~tag:57 600_000 in
  let _sinks = serve c ~reply in
  let csink = make_sink () in
  let conn =
    Stack.connect (Host.tcp c.cclient)
      ~remote:(Chain.service_addr c.chain, 80)
      ()
  in
  wire_sink csink conn;
  Tcb.set_on_established conn (fun () -> ignore (Tcb.send conn "get"));
  let engine = World.engine c.cworld in
  let tail_idx = ref (-1) in
  let rejoin_scheduled = ref false in
  let settled = ref None in
  let rekilled = ref false in
  let isolated = ref 0 in
  Chain.set_on_event c.chain (fun ev ->
      match ev with
      | Chain.Promoted _ when not !rejoin_scheduled ->
        rejoin_scheduled := true;
        ignore
          (Engine.schedule engine ~delay:(Time.ms 1) (fun () ->
               let h =
                 World.add_host c.cworld c.clan ~name:"repaired"
                   ~addr:"10.0.0.8" ()
               in
               World.warm_arp (h :: c.cclient :: c.hosts);
               tail_idx := Chain.rejoin c.chain h))
      | Chain.Transfers_complete n when not !rekilled ->
        rekilled := true;
        settled := Some n;
        ignore
          (Engine.schedule engine ~delay:(Time.ms 5) (fun () ->
               Chain.kill c.chain (Chain.head c.chain)))
      | Chain.Isolated _ -> incr isolated
      | _ -> ());
  ignore
    (Engine.schedule engine ~delay:(Time.ms 30) (fun () ->
         Chain.kill c.chain 0));
  World.run c.cworld ~for_:(Time.sec 120.0);
  check_string "stream exact across kill, rejoin, and rekill" reply
    (sink_contents csink);
  check_bool "eof" true csink.eof;
  check_int "no reset" 0 csink.resets;
  check_bool "rejoin ran" true (!tail_idx >= 0);
  Alcotest.(check (list int))
    "repaired tail survives the second death"
    [ 2; !tail_idx ] (Chain.alive c.chain);
  check_bool "the live conn was re-replicated onto the tail" true
    (match !settled with Some n -> n >= 1 | None -> false);
  check_int "nothing isolated" 0 !isolated;
  check_int "no pending transfers" 0 (Chain.pending_transfers c.chain)

let test_chain_rejoin_validation () =
  let c = make_chain () in
  World.run c.cworld ~for_:(Time.ms 50);
  Alcotest.check_raises "live member refused"
    (Invalid_argument "Chain.rejoin: host is already in the chain")
    (fun () -> ignore (Chain.rejoin c.chain (List.nth c.hosts 1)));
  let dead = World.add_host c.cworld c.clan ~name:"dead" ~addr:"10.0.0.7" () in
  Host.kill dead;
  Alcotest.check_raises "dead host refused"
    (Invalid_argument "Chain.rejoin: host is not alive")
    (fun () -> ignore (Chain.rejoin c.chain dead))

let test_chain_rejoin_during_takeover () =
  (* on a pair, the survivor's §5 takeover is in flight between death
     detection and [Promoted]: a rejoin inside that window must be
     refused (the service address has no owner yet), and the same host
     must be accepted once the takeover settles *)
  let c = make_chain ~n:2 () in
  let fresh =
    World.add_host c.cworld c.clan ~name:"repaired" ~addr:"10.0.0.8" ()
  in
  World.warm_arp (fresh :: c.cclient :: c.hosts);
  let engine = World.engine c.cworld in
  let refused = ref false in
  let joined = ref None in
  Chain.set_on_event c.chain (fun ev ->
      match ev with
      | Chain.Death_detected _ ->
        ignore
          (Engine.schedule engine ~delay:(Time.us 1) (fun () ->
               try ignore (Chain.rejoin c.chain fresh)
               with Invalid_argument _ -> refused := true))
      | Chain.Promoted _ ->
        ignore
          (Engine.schedule engine ~delay:(Time.us 1) (fun () ->
               if !joined = None then joined := Some (Chain.rejoin c.chain fresh)))
      | _ -> ());
  ignore
    (Engine.schedule engine ~delay:(Time.ms 30) (fun () ->
         Chain.kill c.chain 0));
  World.run c.cworld ~for_:(Time.sec 5.0);
  check_bool "rejoin refused mid-takeover" true !refused;
  (match !joined with
  | Some idx ->
    Alcotest.(check (list int))
      "paired with the survivor after the takeover"
      [ 1; idx ] (Chain.alive c.chain)
  | None -> Alcotest.fail "rejoin never succeeded after the takeover");
  check_int "no pending transfers" 0 (Chain.pending_transfers c.chain)

let test_chain_write_during_paced_rejoin () =
  (* Regression for capture atomicity on chains: rejoin offers are paced,
     so client bytes land on connections whose offers are still queued.
     Each deferred capture (quiesce, then Δ, then the TCB image) must
     count those bytes exactly once; killing the transfer source then
     leaves the rejoined tail serving from its restored copies, where a
     double-counted or lost byte surfaces as a divergent stream. *)
  let c = make_chain () in
  Chain.listen c.chain ~port:80 ~on_accept:(fun ~replica:_ tcb ->
      Tcb.set_on_data tcb (fun d -> ignore (Tcb.send tcb ("R:" ^ d))));
  (* one datagram carries the first installments of several small
     offers, so a handful of connections would all leave in the first
     pace tick: forty keep offers queued while the writes land *)
  let n = 40 in
  let sinks = Array.init n (fun _ -> make_sink ()) in
  let conns =
    Array.init n (fun i ->
        let conn =
          Stack.connect (Host.tcp c.cclient)
            ~remote:(Chain.service_addr c.chain, 80)
            ()
        in
        wire_sink sinks.(i) conn;
        Tcb.set_on_established conn (fun () ->
            ignore (Tcb.send conn (Printf.sprintf "q%d" i)));
        conn)
  in
  let isolated = ref 0 in
  let settled = ref None in
  Chain.set_on_event c.chain (function
    | Chain.Isolated _ -> incr isolated
    | Chain.Transfers_complete k -> settled := Some k
    | _ -> ());
  World.run c.cworld ~for_:(Time.sec 1.0);
  (* the tail dies; replica 1 degrades and becomes the transfer source *)
  Chain.kill c.chain 2;
  World.run c.cworld ~for_:(Time.sec 1.0);
  let fresh =
    World.add_host c.cworld c.clan ~name:"repaired" ~addr:"10.0.0.8" ()
  in
  World.warm_arp (fresh :: c.cclient :: c.hosts);
  let tail = Chain.rejoin c.chain fresh in
  Array.iteri
    (fun i conn -> ignore (Tcb.send conn (Printf.sprintf "m%d" i)))
    conns;
  World.run c.cworld ~for_:(Time.us 300);
  check_bool "offers still queued once the writes landed" true
    (Tcpfo_obs.Registry.gauge_value (World.metrics c.cworld)
       "statex.transfer_queue_depth"
     > 0);
  World.run c.cworld ~for_:(Time.sec 2.0);
  check_bool "every connection re-replicated" true (!settled = Some n);
  check_int "nothing isolated" 0 !isolated;
  check_int "no pending transfers" 0 (Chain.pending_transfers c.chain);
  (* the transfer source dies: the rejoined tail re-diverts to the head
     and carries every session on its restored copy *)
  Chain.kill c.chain 1;
  World.run c.cworld ~for_:(Time.sec 2.0);
  Alcotest.(check (list int)) "head and rejoined tail" [ 0; tail ]
    (Chain.alive c.chain);
  Array.iteri
    (fun i conn -> ignore (Tcb.send conn (Printf.sprintf "e%d" i)))
    conns;
  World.run c.cworld ~for_:(Time.sec 3.0);
  Array.iteri
    (fun i s ->
      check_string "session continued byte-exactly"
        (Printf.sprintf "R:q%dR:m%dR:e%d" i i i)
        (sink_contents s);
      check_int "never reset" 0 s.resets)
    sinks

let suite =
  suite
  @ [
      Alcotest.test_case "server-initiated through a chain (7.2)" `Quick
        test_chain_server_initiated;
      Alcotest.test_case "rejoin restores three tiers mid-stream" `Quick
        test_chain_rejoin_restores_three_tiers;
      Alcotest.test_case "rejoin validation" `Quick
        test_chain_rejoin_validation;
      Alcotest.test_case "rejoin refused mid-takeover, accepted after" `Quick
        test_chain_rejoin_during_takeover;
      Alcotest.test_case "client write during paced rejoin counted once"
        `Quick test_chain_write_during_paced_rejoin;
    ]

(* ---------------- failure detection and takeover ---------------- *)

let period = Failover_config.default.heartbeat_period
let timeout = Failover_config.default.detector_timeout

let record_deaths c =
  let deaths = ref [] in
  Chain.set_on_event c.chain (function
    | Chain.Death_detected i -> deaths := (i, World.now c.cworld) :: !deaths
    | _ -> ());
  deaths

(* Chains run the pool's deadline detector, so a killed head is declared
   dead within [detector_timeout + 2 * heartbeat_period] plus delivery. *)
let test_head_death_detection_bound () =
  let c = make_chain () in
  let deaths = record_deaths c in
  World.run c.cworld ~for_:(Time.ms 55);
  Chain.kill c.chain 0;
  let killed = World.now c.cworld in
  World.run c.cworld ~for_:(Time.ms 300);
  match !deaths with
  | [ (0, at) ] ->
    check_bool "detected within timeout + 2 periods" true
      (at - killed <= timeout + (2 * period) + Time.ms 1)
  | _ -> Alcotest.fail "expected exactly the head's death"

(* A silence shorter than [detector_timeout + heartbeat_period] is
   jitter, not death.  The first pause shifts the tail's beats off the
   period grid the other replicas started on; the second silences it
   for 37.5 ms between beats.  A fixed-period poll on that grid sees
   the last beat more than [detector_timeout] old at its next tick and
   declares the tail dead; the deadline detector does not. *)
let test_short_silence_not_death () =
  let c = make_chain () in
  let deaths = record_deaths c in
  let tail = List.nth c.hosts 2 in
  let pause_at ms ~for_ =
    ignore
      (Engine.schedule (World.engine c.cworld) ~delay:(Time.us ms)
         (fun () ->
           Host.pause tail;
           ignore
             (Engine.schedule (World.engine c.cworld) ~delay:for_ (fun () ->
                  Host.resume tail))))
  in
  pause_at 58_000 ~for_:(Time.ms 7);
  pause_at 75_500 ~for_:(Time.ms 37);
  World.run c.cworld ~for_:(Time.ms 300);
  check_int "no replica declared dead" 0 (List.length !deaths);
  Alcotest.(check (list int)) "all alive" [ 0; 1; 2 ] (Chain.alive c.chain)

(* A middle replica's promotion is the §5 takeover: it publishes the
   same Failover phases the secondary bridge's takeover does. *)
let test_middle_promotion_events () =
  let c = make_chain () in
  let phases = ref [] in
  let _ =
    Tcpfo_obs.Event.Bus.subscribe
      (Tcpfo_obs.Obs.bus (World.obs c.cworld))
      (fun ~at:_ ev ->
        match ev with
        | Tcpfo_obs.Event.Failover
            {
              host = "replica1";
              phase = (Takeover_started | Takeover_complete) as p;
            } ->
          phases := p :: !phases
        | _ -> ())
  in
  World.run c.cworld ~for_:(Time.ms 30);
  Chain.kill c.chain 0;
  World.run c.cworld ~for_:(Time.ms 300);
  check_int "replica 1 promoted" 1 (Chain.head c.chain);
  check_bool "takeover started, then completed" true
    (List.rev !phases = [ Takeover_started; Takeover_complete ])

let test_chain_heartbeat_counters () =
  let c = make_chain () in
  World.run c.cworld ~for_:(Time.ms 100);
  List.iter
    (fun h ->
      let sent =
        Tcpfo_obs.Registry.counter_value (World.metrics c.cworld)
          (Printf.sprintf "host.%s.heartbeat.sent" (Host.name h))
      in
      check_bool (Host.name h ^ " counts its beats") true (sent > 0))
    c.hosts

let suite =
  suite
  @ [
      Alcotest.test_case "killed head detected within the deadline bound"
        `Quick test_head_death_detection_bound;
      Alcotest.test_case "silence under timeout + period is not death"
        `Quick test_short_silence_not_death;
      Alcotest.test_case "middle promotion publishes takeover events" `Quick
        test_middle_promotion_events;
      Alcotest.test_case "chain registers heartbeat counters" `Quick
        test_chain_heartbeat_counters;
    ]
