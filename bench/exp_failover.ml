(* E6 — failover transparency and latency (extension; the paper asserts
   transparency in §5 but reports no failover-time figure).

   A client downloads a fixed reply; the primary (or secondary) is killed
   at a configurable instant.  We report: stream integrity, the
   client-visible stall (longest gap between consecutive data arrivals),
   and the total transfer time — then sweep the fault-detector timeout,
   which dominates the stall. *)

open Harness
module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Replicated = Tcpfo_core.Replicated
module Failover_config = Tcpfo_core.Failover_config

type outcome = {
  intact : bool;
  stall_ns : int;
  total_ns : int;
  completed : bool;
}

let reply_size = 400_000

let one_run ~seed ~victim ~kill_at ~detector_timeout =
  let world = World.create ~seed () in
  note_world world;
  let lan = World.make_lan world () in
  let client =
    World.add_host world lan ~name:"client" ~addr:"10.0.0.10"
      ~profile:paper_profile ()
  in
  let primary =
    World.add_host world lan ~name:"primary" ~addr:"10.0.0.1"
      ~profile:paper_profile ()
  in
  let secondary =
    World.add_host world lan ~name:"secondary" ~addr:"10.0.0.2"
      ~profile:paper_profile ()
  in
  World.warm_arp [ client; primary; secondary ];
  let config =
    Failover_config.make ~service_ports:[ 5002 ]
      ~bridge_cost:(Time.us 25) ~detector_timeout ()
  in
  let repl = Replicated.create ~primary ~secondary ~config () in
  let reply = String.init reply_size (fun i -> Char.chr ((i * 7) land 0xFF)) in
  Replicated.listen repl ~port:5002 ~on_accept:(fun ~role:_ tcb ->
      Tcb.set_on_established tcb (fun () ->
          Tcpfo_apps.Bulk.send_and_close tcb reply));
  let buf = Buffer.create reply_size in
  let started = ref Time.zero in
  let last_arrival = ref Time.zero in
  let max_gap = ref 0 in
  let finished = ref None in
  let c =
    Stack.connect (Host.tcp client)
      ~remote:(Replicated.service_addr repl, 5002)
      ()
  in
  Tcb.set_on_established c (fun () ->
      started := World.now world;
      last_arrival := World.now world);
  Tcb.set_on_data c (fun d ->
      let t = World.now world in
      max_gap := max !max_gap (t - !last_arrival);
      last_arrival := t;
      Buffer.add_string buf d);
  Tcb.set_on_eof c (fun () -> finished := Some (World.now world));
  ignore
    (Engine.schedule (World.engine world) ~delay:kill_at (fun () ->
         match victim with
         | `Primary -> Replicated.kill_primary repl
         | `Secondary -> Replicated.kill_secondary repl));
  World.run world ~for_:(Time.sec 60.0);
  {
    intact = Buffer.contents buf = reply;
    stall_ns = !max_gap;
    total_ns = (match !finished with Some t -> t - !started | None -> -1);
    completed = !finished <> None;
  }

let detector = Time.ms 30

(* What a primary kill may cost the client (DESIGN.md 7.22): detection,
   the §5 reconfiguration and a 20 ms margin for the resend's round
   trip. *)
let stall_bound =
  detector + Failover_config.default.takeover_processing + Time.ms 20

let ms t = float_of_int t /. 1e6

let run_exp ~trials =
  print_header
    "E6: failover transparency and client-visible stall (extension)";
  let kill_times = [ Time.ms 5; Time.ms 20; Time.ms 50; Time.ms 100 ] in
  let med runs f = Tcpfo_util.Stats.median (List.map f runs) in
  let intact runs = List.for_all (fun r -> r.intact && r.completed) runs in
  Printf.printf "victim=primary, detector timeout 30 ms, %d trials/point\n"
    trials;
  Printf.printf "%-12s %8s %14s %14s %12s\n" "kill at" "intact"
    "stall med[ms]" "total med[ms]" "completed";
  let primary_rows =
    List.map
      (fun kill_at ->
        let runs =
          map_trials trials (fun i ->
              one_run ~seed:(6000 + i) ~victim:`Primary ~kill_at
                ~detector_timeout:detector)
        in
        let stall = med runs (fun r -> ms r.stall_ns) in
        Printf.printf "%-12s %8b %14.2f %14.2f %11d/%d\n"
          (Printf.sprintf "%dms" (kill_at / 1_000_000))
          (intact runs) stall
          (med runs (fun r -> ms r.total_ns))
          (List.length (List.filter (fun r -> r.completed) runs))
          trials;
        (kill_at, intact runs, stall))
      kill_times
  in
  Printf.printf "\nvictim=secondary (primary degrades per \xc2\xa76):\n";
  let secondary_rows =
    List.map
      (fun kill_at ->
        let runs =
          map_trials trials (fun i ->
              one_run ~seed:(6500 + i) ~victim:`Secondary ~kill_at
                ~detector_timeout:detector)
        in
        Printf.printf "%-12s %8b %14.2f %14.2f\n"
          (Printf.sprintf "%dms" (kill_at / 1_000_000))
          (intact runs)
          (med runs (fun r -> ms r.stall_ns))
          (med runs (fun r -> ms r.total_ns));
        intact runs)
      kill_times
  in
  Printf.printf "\ndetector-timeout sweep (kill at 20 ms, victim=primary):\n";
  Printf.printf "%-14s %14s %14s\n" "timeout" "stall med[ms]" "total med[ms]";
  let sweep =
    List.map
      (fun dt ->
        let runs =
          map_trials trials (fun i ->
              one_run ~seed:(7000 + i) ~victim:`Primary ~kill_at:(Time.ms 20)
                ~detector_timeout:dt)
        in
        let stall = med runs (fun r -> ms r.stall_ns) in
        Printf.printf "%-14s %14.2f %14.2f\n"
          (Printf.sprintf "%dms" (dt / 1_000_000))
          stall
          (med runs (fun r -> ms r.total_ns));
        (dt, intact runs, stall))
      [ Time.ms 10; Time.ms 30; Time.ms 100; Time.ms 300 ]
  in
  let rec monotonic = function
    | (_, _, a) :: ((_, _, b) :: _ as rest) -> a <= b && monotonic rest
    | [ _ ] | [] -> true
  in
  let bound_ok =
    List.for_all (fun (_, _, s) -> s <= ms stall_bound) primary_rows
  in
  let all_ok =
    List.for_all (fun (_, ok, _) -> ok) primary_rows
    && List.for_all Fun.id secondary_rows
    && List.for_all (fun (_, ok, _) -> ok) sweep
    && bound_ok && monotonic sweep
  in
  let row key (x, ok, stall) =
    Printf.sprintf "{\"%s\":%d,\"intact\":%b,\"stall_median_ms\":%.2f}" key
      (x / 1_000_000) ok stall
  in
  Printf.printf
    "[failover-summary] {\"trials\":%d,\"jobs\":%d,\"all_ok\":%b,\
     \"stall_bound_ms\":%.2f,\"bound_ok\":%b,\"sweep_monotonic\":%b,\
     \"primary\":[%s],\"sweep\":[%s]}\n"
    trials !jobs all_ok (ms stall_bound) bound_ok (monotonic sweep)
    (String.concat "," (List.map (row "kill_ms") primary_rows))
    (String.concat "," (List.map (row "timeout_ms") sweep));
  Printf.printf
    "shape check: a primary kill stalls the client for the detector\n\
     timeout + takeover + about one round trip, because the survivor\n\
     resends from snd_una the moment it owns the address (DESIGN 7.22),\n\
     so the stall grows with the timeout and with nothing else; a kill\n\
     after the last byte left costs almost nothing; stream integrity\n\
     holds at every kill instant.\n%!";
  dump_metrics ~exp:"failover"
