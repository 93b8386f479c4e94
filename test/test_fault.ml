(* The frame-fault injector (budgets and loss bursts spent in order),
   host pause/resume semantics, and the reversible partition. *)

module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Heartbeat = Tcpfo_core.Heartbeat
module Failover_config = Tcpfo_core.Failover_config
module Registry = Tcpfo_obs.Registry
module Injector = Tcpfo_fault.Injector
module Medium = Tcpfo_net.Medium
module Obs = Tcpfo_obs.Obs
module Rng = Tcpfo_util.Rng
module Eth_frame = Tcpfo_packet.Eth_frame
module Macaddr = Tcpfo_packet.Macaddr
module Ipaddr = Tcpfo_packet.Ipaddr
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
open Testutil

let counter world name = Registry.counter_value (World.metrics world) name
let at world ms f = ignore (Engine.schedule_at (World.engine world) ~at:ms f)

(* ---------------- injector ---------------- *)

(* A bare idle medium sending one frame per millisecond (at 1 ms, 2 ms,
   ...), with [faults] applied at time 0.  The hook rules as a frame
   goes out, so the fault counters read right after each transmit give
   one letter per frame: D dropped, C corrupted, P passed. *)
let frame_outcomes ~frames faults =
  let engine = Engine.create () in
  let obs = Obs.create () in
  let m =
    Medium.create engine ~rng:(Rng.create ~seed:11) ~obs Medium.default_config
  in
  let inj = Injector.create engine ~rng:(Rng.create ~seed:5) in
  let tx = Medium.attach m ~deliver:ignore in
  let _rx = Medium.attach m ~deliver:ignore in
  let frame =
    Eth_frame.make ~src:(Macaddr.of_int 1) ~dst:(Macaddr.of_int 2)
      (Eth_frame.Ip
         (Ipv4_packet.make ~src:(Ipaddr.of_int 1) ~dst:(Ipaddr.of_int 2)
            (Ipv4_packet.Raw { proto = 200; data = String.make 100 'x' })))
  in
  let value name = Registry.counter_value (Obs.metrics obs) name in
  let out = Buffer.create frames in
  faults engine inj m;
  for i = 1 to frames do
    ignore
      (Engine.schedule_at engine ~at:(Time.ms i) (fun () ->
           let dropped = value "medium.fault_dropped"
           and corrupted = value "medium.corrupted" in
           Medium.transmit m tx frame;
           Buffer.add_char out
             (if value "medium.fault_dropped" > dropped then 'D'
              else if value "medium.corrupted" > corrupted then 'C'
              else 'P')))
  done;
  Engine.run engine;
  (Buffer.contents out, value "medium.fault_dropped", value "medium.corrupted")

(* Set together, a drop budget, a corruption budget and a certain loss
   burst until 8 ms are spent in that order. *)
let test_budgets_then_burst () =
  let outcomes, dropped, corrupted =
    frame_outcomes ~frames:10 (fun _ inj m ->
        Injector.drop inj m 2;
        Injector.corrupt inj m 2;
        Injector.loss_burst inj m ~p:1.0 ~for_:(Time.ms 8))
  in
  check_string "drops, corruptions, burst, then clean" "DDCCDDDPPP" outcomes;
  check_int "medium.fault_dropped" 5 dropped;
  check_int "medium.corrupted" 2 corrupted

(* A burst set at 4.5 ms for 2 ms replaces one that would have run to
   50 ms. *)
let test_second_burst_replaces () =
  let outcomes, dropped, _ =
    frame_outcomes ~frames:10 (fun engine inj m ->
        Injector.loss_burst inj m ~p:1.0 ~for_:(Time.ms 50);
        ignore
          (Engine.schedule_at engine ~at:(Time.us 4_500) (fun () ->
               Injector.loss_burst inj m ~p:1.0 ~for_:(Time.ms 2))))
  in
  check_string "the second burst ends at 6.5 ms" "DDDDDDPPPP" outcomes;
  check_int "medium.fault_dropped" 6 dropped

let hb_config =
  Failover_config.make ~heartbeat_period:(Time.ms 10)
    ~detector_timeout:(Time.ms 30) ()

(* Two hosts exchanging heartbeats give a steady, deterministic frame
   supply; the injector's drop/corrupt budgets must be spent exactly. *)
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
  (world, lan, b, detected)

let test_drop_and_corrupt_budgets () =
  let world, lan, _, _ = beating_world () in
  let inj = Injector.create (World.engine world) ~rng:(World.fresh_rng world) in
  at world (Time.ms 1) (fun () ->
      Injector.drop inj lan 3;
      Injector.corrupt inj lan 2);
  World.run world ~for_:(Time.ms 200);
  check_int "exactly the budgeted drops" 3 (counter world "medium.fault_dropped");
  check_int "exactly the budgeted corruptions" 2
    (counter world "medium.corrupted")

(* Pause parks a host's timers without detaching it; resume releases
   them in order.  An application timer due during the pause must fire
   exactly at the resume instant, not never and not early. *)
let test_pause_defers_timers () =
  let world = World.create ~seed:3 () in
  let lan = World.make_lan world () in
  let h = World.add_host world lan ~name:"h" ~addr:"10.0.0.1" () in
  at world (Time.ms 1) (fun () -> Host.pause h);
  at world (Time.ms 20) (fun () -> Host.resume h);
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
  let world, _, b, detected = beating_world () in
  let partition ~from ~until =
    at world from (fun () -> Host.set_partitioned b true);
    at world until (fun () -> Host.set_partitioned b false)
  in
  partition ~from:(Time.ms 100) ~until:(Time.ms 120);
  World.run world ~for_:(Time.ms 200);
  check_bool "short partition stays below the detection bound" false !detected;
  let received_before = counter world "host.a.heartbeat.received" in
  World.run world ~for_:(Time.ms 100);
  check_bool "beats flow again after the partition heals" true
    (counter world "host.a.heartbeat.received" > received_before);
  partition ~from:(Time.ms 300) ~until:(Time.ms 360);
  World.run world ~for_:(Time.ms 200);
  check_bool "silence past the bound trips the detector" true !detected

let suite =
  [
    Alcotest.test_case "budgets then burst, in that order" `Quick
      test_budgets_then_burst;
    Alcotest.test_case "second loss burst replaces the first" `Quick
      test_second_burst_replaces;
    Alcotest.test_case "drop and corrupt budgets exact" `Quick
      test_drop_and_corrupt_budgets;
    Alcotest.test_case "pause defers timers to resume" `Quick
      test_pause_defers_timers;
    Alcotest.test_case "host timer allocates one record" `Quick
      test_host_timer_allocates_one_record;
    Alcotest.test_case "cancel while parked skips at resume" `Quick
      test_cancel_while_parked;
    Alcotest.test_case "partition reversible but detectable" `Quick
      test_partition_is_reversible_but_detectable;
  ]
