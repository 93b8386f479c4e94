(* The fault-plan DSL and its injector: parser round-trips and rejects,
   deterministic frame drops, host pause/resume semantics, and the
   reversible partition. *)

module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Heartbeat = Tcpfo_core.Heartbeat
module Failover_config = Tcpfo_core.Failover_config
module Registry = Tcpfo_obs.Registry
module Fault = Tcpfo_fault.Fault
module Injector = Tcpfo_fault.Injector
open Testutil

let counter world name = Registry.counter_value (World.metrics world) name

(* ---------------- parser ---------------- *)

let test_parse_roundtrip () =
  let text =
    "at 20ms kill primary; after 5ms pause client; at 15ms partition \
     secondary for 8ms; at 10ms drop 3 lan; at 10ms corrupt 2 lan; at 30ms \
     loss lan 0.4 for 6ms; every 10ms x 5 drop 1 lan p=0.5; after 2s resume \
     client"
  in
  let plan = Fault.parse_exn text in
  check_int "statement count" 8 (List.length plan);
  let again = Fault.parse_exn (Fault.to_string plan) in
  check_bool "round-trips through to_string" true (plan = again);
  (match (List.hd plan).Fault.trigger with
  | Fault.At t -> check_int "20ms in ns" (Time.ms 20) t
  | _ -> Alcotest.fail "first trigger should be At");
  match List.rev plan with
  | { Fault.action = Fault.Resume_host "client"; trigger = Fault.After t; _ }
    :: _ ->
    check_int "2s in ns" (Time.sec 2.0) t
  | _ -> Alcotest.fail "last statement should be 'after 2s resume client'"

let test_parse_rejects () =
  let bad text =
    match Fault.parse text with
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" text)
    | Error _ -> ()
  in
  bad "at 20 kill primary" (* unitless duration *);
  bad "at 20ms explode primary" (* unknown action *);
  bad "at 20ms drop lan 3" (* swapped operands *);
  bad "at 30ms loss lan 1.5 for 6ms" (* probability out of range *);
  bad "kill primary" (* missing trigger *);
  bad "at 20ms drop 1 lan p=nope" (* malformed gate *)

(* ---------------- injector ---------------- *)

let hb_config =
  Failover_config.make ~heartbeat_period:(Time.ms 10)
    ~detector_timeout:(Time.ms 30) ()

(* Two hosts exchanging heartbeats give a steady, deterministic frame
   supply; the plan's drop/corrupt budgets must be spent exactly. *)
let beating_world () =
  let world = World.create ~seed:7 () in
  let lan = World.make_lan world () in
  let a = World.add_host world lan ~name:"a" ~addr:"10.0.0.1" () in
  let b = World.add_host world lan ~name:"b" ~addr:"10.0.0.2" () in
  World.warm_arp [ a; b ];
  let detected = ref false in
  let _ =
    Heartbeat.start a ~peer:(Host.addr b) ~role:`Primary ~config:hb_config
      ~on_peer_failure:(fun () -> detected := true)
  in
  let _ =
    Heartbeat.start b ~peer:(Host.addr a) ~role:`Secondary ~config:hb_config
      ~on_peer_failure:(fun () -> ())
  in
  let env =
    {
      Injector.engine = World.engine world;
      rng = World.fresh_rng world;
      hosts = [ ("a", a); ("b", b) ];
      nets = [ ("lan", Injector.Medium_net lan) ];
    }
  in
  (world, env, detected)

let test_drop_and_corrupt_budgets () =
  let world, env, _ = beating_world () in
  ignore
    (Injector.install env
       (Fault.parse_exn "after 1ms drop 3 lan; after 1ms corrupt 2 lan"));
  World.run world ~for_:(Time.ms 200);
  check_int "exactly the budgeted drops" 3 (counter world "medium.fault_dropped");
  check_int "exactly the budgeted corruptions" 2
    (counter world "medium.corrupted")

(* Firings 25 ms apart lose at most one beat per detector window, so the
   detectors stay quiet and the frame supply never dries up. *)
let test_every_trigger_bounded () =
  let world, env, detected = beating_world () in
  ignore (Injector.install env (Fault.parse_exn "every 25ms x 4 drop 1 lan"));
  World.run world ~for_:(Time.ms 300);
  check_bool "isolated drops below the detection bound" false !detected;
  check_int "one drop per firing, four firings" 4
    (counter world "medium.fault_dropped")

let test_unknown_names_rejected_at_install () =
  let world, env, _ = beating_world () in
  ignore world;
  check_bool "unknown host" true
    (try
       ignore (Injector.install env (Fault.parse_exn "at 1ms kill nobody"));
       false
     with Invalid_argument _ -> true);
  check_bool "unknown net" true
    (try
       ignore (Injector.install env (Fault.parse_exn "at 1ms drop 1 wan"));
       false
     with Invalid_argument _ -> true)

(* Pause parks a host's timers without detaching it; resume releases
   them in order.  An application timer due during the pause must fire
   exactly at the resume instant, not never and not early. *)
let test_pause_defers_timers () =
  let world = World.create ~seed:3 () in
  let lan = World.make_lan world () in
  let h = World.add_host world lan ~name:"h" ~addr:"10.0.0.1" () in
  let env =
    {
      Injector.engine = World.engine world;
      rng = World.fresh_rng world;
      hosts = [ ("h", h) ];
      nets = [ ("lan", Injector.Medium_net lan) ];
    }
  in
  ignore
    (Injector.install env (Fault.parse_exn "at 1ms pause h; at 20ms resume h"));
  let fired_at = ref None in
  ignore
    ((Host.clock h).schedule (Time.ms 5) (fun () ->
         fired_at := Some (World.now world)));
  World.run world ~for_:(Time.ms 10);
  check_bool "timer held while paused" true (!fired_at = None);
  check_bool "paused state visible" true (Host.paused h);
  World.run world ~for_:(Time.ms 20);
  match !fired_at with
  | Some t -> check_int "released at the resume instant" (Time.ms 20) t
  | None -> Alcotest.fail "timer never released"

(* The host's liveness and pause check rides in the engine's event
   record, so a timer armed through a host's clock costs one record of
   9 words and nothing else. *)
let test_host_timer_allocates_one_record () =
  let engine = Engine.create () in
  let clock = Testutil.host_clock engine in
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    ignore (clock.schedule (Time.ms 1 + i) ignore)
  done;
  let w1 = Gc.minor_words () in
  check_bool "at most 9.5 words per event" true
    ((w1 -. w0) /. float_of_int n <= 9.5);
  Engine.run engine;
  check_int "all fired" n (Engine.processed engine)

(* A timer cancelled while its body is parked on a paused host does not
   run at resume; the other parked bodies run in order at the resume
   instant. *)
let test_cancel_while_parked () =
  let engine = Engine.create () in
  let h = Host.create engine ~name:"h" ~rng:(Tcpfo_util.Rng.create ~seed:1) () in
  let clock = Host.clock h in
  let log = ref [] in
  let arm tag ms =
    clock.schedule (Time.ms ms) (fun () ->
        log := (tag, Engine.now engine) :: !log)
  in
  ignore (Engine.schedule engine ~delay:(Time.us 500) (fun () -> Host.pause h));
  let _a = arm "a" 1 and b = arm "b" 2 and _c = arm "c" 3 in
  Engine.run_for engine (Time.ms 5);
  check_bool "all parked" true (!log = []);
  clock.cancel b;
  ignore (Engine.schedule engine ~delay:(Time.ms 5) (fun () -> Host.resume h));
  Engine.run engine;
  check_bool "a then c, at the resume instant" true
    (List.rev !log = [ ("a", Time.ms 10); ("c", Time.ms 10) ])

(* A short partition must heal invisibly (the gap stays under the
   detection bound and beats resume), while one long enough to starve
   the detector must trigger it even though the partitioned host never
   died. *)
let test_partition_is_reversible_but_detectable () =
  let world, env, detected = beating_world () in
  ignore
    (Injector.install env (Fault.parse_exn "at 100ms partition b for 20ms"));
  World.run world ~for_:(Time.ms 200);
  check_bool "short partition stays below the detection bound" false !detected;
  let received_before = counter world "host.a.heartbeat.received" in
  World.run world ~for_:(Time.ms 100);
  check_bool "beats flow again after the partition heals" true
    (counter world "host.a.heartbeat.received" > received_before);
  ignore
    (Injector.install env (Fault.parse_exn "at 300ms partition b for 60ms"));
  World.run world ~for_:(Time.ms 200);
  check_bool "silence past the bound trips the detector" true !detected

let suite =
  [
    Alcotest.test_case "plan parse round-trip" `Quick test_parse_roundtrip;
    Alcotest.test_case "plan parse rejections" `Quick test_parse_rejects;
    Alcotest.test_case "drop and corrupt budgets exact" `Quick
      test_drop_and_corrupt_budgets;
    Alcotest.test_case "every trigger bounded by count" `Quick
      test_every_trigger_bounded;
    Alcotest.test_case "unknown names rejected at install" `Quick
      test_unknown_names_rejected_at_install;
    Alcotest.test_case "pause defers timers to resume" `Quick
      test_pause_defers_timers;
    Alcotest.test_case "host timer allocates one record" `Quick
      test_host_timer_allocates_one_record;
    Alcotest.test_case "cancel while parked skips at resume" `Quick
      test_cancel_while_parked;
    Alcotest.test_case "partition reversible but detectable" `Quick
      test_partition_is_reversible_but_detectable;
  ]
