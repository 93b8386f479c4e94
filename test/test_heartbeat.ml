(* Regression tests for the heartbeat fault detector: peer filtering on a
   shared segment, the detection-latency bound, the beat's wire format,
   malformed beats, and watchers leaving the host's watcher set. *)

module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Ip_layer = Tcpfo_ip.Ip_layer
module Eth_frame = Tcpfo_packet.Eth_frame
module Capture = Tcpfo_net.Capture
module Heartbeat = Tcpfo_core.Heartbeat
module Failover_config = Tcpfo_core.Failover_config
open Testutil

let period = Time.ms 10
let timeout = Time.ms 30

let hb_config =
  Failover_config.make ~heartbeat_period:period ~detector_timeout:timeout ()

(* Three replicas on one LAN: [a] watches [b], while bystander [c] beats
   toward [a] the whole time.  The detector must not mistake c's beats
   for signs of life from b — an origin-based filter (anything not from
   myself) does exactly that and never notices b dying. *)
let test_bystander_does_not_mask_dead_peer () =
  let world = World.create () in
  let lan = World.make_lan world () in
  let a = World.add_host world lan ~name:"a" ~addr:"10.0.0.1" () in
  let b = World.add_host world lan ~name:"b" ~addr:"10.0.0.2" () in
  let c = World.add_host world lan ~name:"c" ~addr:"10.0.0.3" () in
  World.warm_arp [ a; b; c ];
  let detected_at = ref None in
  let _ha =
    Heartbeat.start a ~peer:(Host.addr b) ~role:`Primary ~config:hb_config
      ~on_peer_failure:(fun () -> detected_at := Some (World.now world))
  in
  let _hb =
    Heartbeat.start b ~peer:(Host.addr a) ~role:`Secondary ~config:hb_config
      ~on_peer_failure:(fun () -> ())
  in
  (* c beats toward a with the same role b has, so only the source-address
     check tells them apart *)
  let _hc =
    Heartbeat.start c ~peer:(Host.addr a) ~role:`Secondary ~config:hb_config
      ~on_peer_failure:(fun () -> ())
  in
  World.run world ~for_:(Time.ms 200);
  Host.kill b;
  let kill_time = World.now world in
  World.run world ~for_:(Time.sec 2.0);
  (match !detected_at with
  | None -> Alcotest.fail "b's death masked by bystander heartbeats"
  | Some t ->
    check_bool "detected within bound" true
      (t - kill_time <= timeout + (2 * period) + Time.ms 1));
  (* c kept beating throughout; its beats reached a but must not have
     been credited to b *)
  let received host =
    Tcpfo_obs.Registry.counter_value (World.metrics world)
      (Printf.sprintf "host.%s.heartbeat.received" host)
  in
  check_bool "a counted only b's beats" true (received "a" <= 21)

(* Worst-case detection latency: kill the peer immediately after a beat
   arrived, so the detector has to ride out the longest possible silence.
   The deadline-driven check must fire by [timeout + 2 x period] (the
   beat expected one period after the last arrival, [timeout] overdue,
   plus sub-period delivery slack) — a fixed-period poll that re-arms a
   full timeout can take nearly [2 x timeout + period]. *)
let test_detection_latency_bound () =
  let world = World.create () in
  let lan = World.make_lan world () in
  let a = World.add_host world lan ~name:"a" ~addr:"10.0.0.1" () in
  let b = World.add_host world lan ~name:"b" ~addr:"10.0.0.2" () in
  World.warm_arp [ a; b ];
  let detected_at = ref None in
  let _ha =
    Heartbeat.start a ~peer:(Host.addr b) ~role:`Primary ~config:hb_config
      ~on_peer_failure:(fun () -> detected_at := Some (World.now world))
  in
  let _hb =
    Heartbeat.start b ~peer:(Host.addr a) ~role:`Secondary ~config:hb_config
      ~on_peer_failure:(fun () -> ())
  in
  (* stop just past a beat emission (beats go out at multiples of the
     period), then kill: the silence window starts at its maximum *)
  World.run world ~for_:(Time.ms 201);
  Host.kill b;
  let kill_time = World.now world in
  World.run world ~for_:(Time.sec 2.0);
  match !detected_at with
  | None -> Alcotest.fail "failure never detected"
  | Some t ->
    let latency = t - kill_time in
    check_bool "waited out the timeout" true (latency >= timeout - period);
    check_bool "fired within timeout + 2 periods" true
      (latency <= timeout + (2 * period))

module Replicated = Tcpfo_core.Replicated

(* Reintegration must re-arm the detector on BOTH hosts: after a fresh
   host replaces a dead secondary, killing the newcomer has to be
   detected just like the original death was — and the same holds in the
   promoted direction after a primary death. *)
let test_detector_rearmed_after_reintegration () =
  let run_case ~first_victim =
    let world = World.create () in
    let lan = World.make_lan world () in
    let a = World.add_host world lan ~name:"a" ~addr:"10.0.0.1" () in
    let b = World.add_host world lan ~name:"b" ~addr:"10.0.0.2" () in
    World.warm_arp [ a; b ];
    let repl = Replicated.create ~primary:a ~secondary:b ~config:hb_config () in
    let detections = ref 0 in
    Replicated.set_on_event repl (function
      | Replicated.Primary_failure_detected
      | Replicated.Secondary_failure_detected -> incr detections
      | _ -> ());
    World.run world ~for_:(Time.ms 100);
    (match first_victim with
    | `Primary -> Replicated.kill_primary repl
    | `Secondary -> Replicated.kill_secondary repl);
    World.run world ~for_:(Time.sec 1.0);
    check_int "first death detected" 1 !detections;
    let fresh = World.add_host world lan ~name:"fresh" ~addr:"10.0.0.3" () in
    let survivor = match first_victim with `Primary -> b | `Secondary -> a in
    World.warm_arp [ survivor; fresh ];
    Replicated.reintegrate repl ~secondary:fresh;
    check_bool "pair healthy again" true (Replicated.status repl = `Normal);
    (* let the new watchers exchange a few beats, then kill the newcomer:
       the re-armed detector on the survivor must notice *)
    World.run world ~for_:(Time.ms 200);
    check_int "no spurious detection after reintegration" 1 !detections;
    Replicated.kill_secondary repl;
    World.run world ~for_:(Time.sec 1.0);
    check_int "newcomer's death detected by re-armed watcher" 2 !detections;
    check_bool "status reflects the second death" true
      (Replicated.status repl = `Secondary_failed)
  in
  run_case ~first_victim:`Secondary;
  run_case ~first_victim:`Primary

(* A beat is [8 + |origin|] bytes of raw proto 253, so a heartbeat frame
   is exactly as long as it was when beats were a typed payload; what
   goes on the wire decodes back to what was sent. *)
let test_wire_format () =
  let beats =
    [
      { Heartbeat.origin = "primary"; seq = 1; role = `Primary };
      { origin = "standby12"; seq = 0xFFFF_FFFF; role = `Secondary };
      { origin = ""; seq = 0; role = `Secondary };
    ]
  in
  List.iter
    (fun (beat : Heartbeat.beat) ->
      let pkt =
        Ipv4_packet.make ~src:Tcpfo_packet.Ipaddr.any
          ~dst:Tcpfo_packet.Ipaddr.any
          (Raw { proto = Heartbeat.proto; data = Heartbeat.encode beat })
      in
      check_int "wire length" (28 + String.length beat.origin)
        (Ipv4_packet.wire_length pkt);
      check_int "protocol number" 253 (Ipv4_packet.protocol_number pkt.payload);
      check_bool "decode inverts encode" true
        (Heartbeat.decode (Heartbeat.encode beat) = Some beat))
    beats;
  let world = World.create () in
  let lan = World.make_lan world () in
  let a = World.add_host world lan ~name:"alpha" ~addr:"10.0.0.1" () in
  let b = World.add_host world lan ~name:"b" ~addr:"10.0.0.2" () in
  World.warm_arp [ a; b ];
  let cap = Capture.start (World.engine world) lan () in
  let _ =
    Heartbeat.start a ~peer:(Host.addr b) ~role:`Primary ~config:hb_config
      ~on_peer_failure:ignore
  in
  World.run world ~for_:(Time.ms 25);
  let sent =
    List.filter_map
      (fun { Capture.frame; _ } ->
        match frame.Eth_frame.payload with
        | Eth_frame.Ip ({ payload = Raw { proto = 253; data }; _ } as pkt) ->
          Some (Ipv4_packet.wire_length pkt, Heartbeat.decode data)
        | _ -> None)
      (Capture.records cap)
  in
  check_bool "beats on the wire" true
    (sent
    = List.map
        (fun seq -> (33, Some { Heartbeat.origin = "alpha"; seq; role = `Primary }))
        [ 1; 2; 3 ])

(* [a] watches [b]; [b] never runs a detector, but keeps sending beats
   that are truncated or carry a bad role byte.  Every one is counted in
   [ip.malformed.heartbeat], none resets the detector, and [a] declares
   [b] dead on the silence schedule. *)
let test_malformed_beats_never_reset () =
  let world = World.create () in
  let lan = World.make_lan world () in
  let a = World.add_host world lan ~name:"a" ~addr:"10.0.0.1" () in
  let b = World.add_host world lan ~name:"b" ~addr:"10.0.0.2" () in
  World.warm_arp [ a; b ];
  let detected_at = ref None in
  let _ =
    Heartbeat.start a ~peer:(Host.addr b) ~role:`Primary ~config:hb_config
      ~on_peer_failure:(fun () -> detected_at := Some (World.now world))
  in
  let good = Heartbeat.encode { origin = "b"; seq = 1; role = `Secondary } in
  let bad_role = Bytes.of_string good in
  Bytes.set_uint8 bad_role 6 7;
  let garbage =
    [ String.sub good 0 8; String.sub good 0 3; Bytes.to_string bad_role ]
  in
  let rec forge n =
    if n > 0 then begin
      List.iter
        (fun data ->
          Ip_layer.send (Host.ip b)
            (Ipv4_packet.make ~src:(Host.addr b) ~dst:(Host.addr a)
               (Raw { proto = Heartbeat.proto; data })))
        garbage;
      ignore ((Host.clock b).schedule (Time.ms 5) (fun () -> forge (n - 1)))
    end
  in
  forge 20;
  World.run world ~for_:(Time.ms 200);
  let counter name =
    Tcpfo_obs.Registry.counter_value (World.metrics world) name
  in
  check_int "every malformed beat counted" 60
    (counter "host.a.ip.malformed.heartbeat");
  check_int "none credited to b" 0 (counter "host.a.heartbeat.received");
  check_bool "b declared dead on the silence schedule" true
    (!detected_at = Some (period + timeout))

(* Stopping a watcher takes it out of the host's watcher set: a watcher
   stopped and restarted on the same peer, however often, fires exactly
   once when the peer dies, and only the live one fires. *)
let test_restarted_watcher_fires_once () =
  let world = World.create () in
  let lan = World.make_lan world () in
  let a = World.add_host world lan ~name:"a" ~addr:"10.0.0.1" () in
  let b = World.add_host world lan ~name:"b" ~addr:"10.0.0.2" () in
  World.warm_arp [ a; b ];
  let fired = Array.make 5 0 in
  let watch i =
    Heartbeat.start a ~peer:(Host.addr b) ~role:`Primary ~config:hb_config
      ~on_peer_failure:(fun () -> fired.(i) <- fired.(i) + 1)
  in
  let _ =
    Heartbeat.start b ~peer:(Host.addr a) ~role:`Secondary ~config:hb_config
      ~on_peer_failure:ignore
  in
  for i = 0 to 3 do
    let w = watch i in
    World.run world ~for_:(Time.ms 20);
    Heartbeat.stop w
  done;
  let _ = watch 4 in
  World.run world ~for_:(Time.ms 100);
  Host.kill b;
  World.run world ~for_:(Time.sec 1.0);
  check_bool "only the live watcher fired, once" true
    (Array.to_list fired = [ 0; 0; 0; 0; 1 ])

let suite =
  [
    Alcotest.test_case "bystander does not mask dead peer" `Quick
      test_bystander_does_not_mask_dead_peer;
    Alcotest.test_case "detection latency bound" `Quick
      test_detection_latency_bound;
    Alcotest.test_case "detector re-armed after reintegration" `Quick
      test_detector_rearmed_after_reintegration;
    Alcotest.test_case "beat wire format" `Quick test_wire_format;
    Alcotest.test_case "malformed beats never reset the detector" `Quick
      test_malformed_beats_never_reset;
    Alcotest.test_case "restarted watcher fires once" `Quick
      test_restarted_watcher_fires_once;
  ]
