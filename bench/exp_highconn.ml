(* E13 — high-connection worlds: events/s and peak memory vs live
   connections {1k, 4k, 10k}.

   The workload is shaped like the fleet-dispatcher scenario: a
   replicated pair serves [conns] long-LIVED connections at once.  Every
   connection, once established, exchanges a small request/response
   round [rounds] times on a per-connection period, and both ends re-arm
   an application idle-watchdog timer on every receipt (armed ~5 s out,
   almost always cancelled by the next round — the far-future,
   usually-cancelled timer population that timer wheels exist for, cf.
   the BSD callout wheel and PnO-TCP's per-packet timer argument).  With
   10k connections the engine carries tens of thousands of pending
   timers.

   Each connection count runs in its own forked process, so every size
   is timed on a fresh heap rather than on the heap the smaller sizes
   grew before it (bench/suite/README.md records how far an in-process
   sweep skews the larger sizes).

   Determinism contract (the part CI gates on): for a fixed seed the
   trial table (conns/completed/bytes/events/sim_ms columns), the
   metrics fingerprint and the [highconn-summary] lines are
   byte-identical across --jobs 1|2 (minus the jobs field).  The
   fingerprint hashes the final world's registry dump minus the
   [engine.*] scope, whose two counters measure the event queue's own
   work (DESIGN 7.11).  Wall-clock, events/s and peak RSS are reported
   on separate [highconn-timing] lines, outside the identity
   comparison. *)

open Harness
module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Medium = Tcpfo_net.Medium
module Replicated = Tcpfo_core.Replicated
module Failover_config = Tcpfo_core.Failover_config
module Registry = Tcpfo_obs.Registry
module Stats = Tcpfo_util.Stats

let service_ports = [ 7000; 7001; 7002; 7003; 7004; 7005; 7006; 7007 ]
let n_clients = 8
let request = "ping............" (* 16 B *)
let reply = "pong............"
let rounds = 3
let watchdog_delay = Time.sec 5.

(* The paper's testbed CPU (paper_profile: 72 us per received datagram,
   ~14k datagrams/s) saturates below what 10k connections generate even
   at one round per second — queueing delay then grows without bound,
   heartbeats blow the 40 ms detector deadline, and the secondary
   falsely takes the service address over.  E13 therefore models a
   server-class host an order of magnitude faster.  The primary, which
   merges both replicas' output on top of its own TCP work, is the
   capacity bottleneck: at 10k connections it is saturated while the
   snooping secondary stays near 25 % busy. *)
let e13_profile =
  { Host.tx_cost = Time.us 5; rx_cost = Time.us 7; jitter_frac = 0.25;
    hiccup_prob = 0.015 }

(* A 10k-connection shard needs more wire than the paper's 100 Mb/s
   testbed segment; collisions stay on. *)
let lan_config = { Medium.default_config with bandwidth_bps = 1_000_000_000 }

type outcome = {
  conns : int;
  completed : int; (* connections that finished all rounds and closed *)
  bytes : int; (* payload bytes received by clients *)
  events : int; (* engine events fired — deterministic per seed *)
  sim_ns : int;
  peak_live : int; (* peak concurrently-established connections *)
  wdog_fires : int; (* idle watchdogs that fired (stalled >5 s) *)
  wall_s : float;
  fingerprint : string; (* registry dump minus engine.*, hashed *)
}

(* Hash of the final registry dump with the structural engine.* lines
   removed: equal across --jobs, and across changes to the event queue
   that keep the firing order. *)
let metrics_fingerprint world =
  let dump = Registry.dump (World.metrics world) in
  let kept =
    String.split_on_char '\n' dump
    |> List.filter (fun line ->
           not (String.length line >= 7 && String.sub line 0 7 = "engine."))
  in
  Digest.to_hex (Digest.string (String.concat "\n" kept))

let one_trial ~conns ~seed =
  let world = World.create ~seed () in
  note_world world;
  let spec =
    (Topo.segment ~config:lan_config "lan"
    :: List.init n_clients (fun i ->
           Topo.host ~profile:e13_profile
             ~addr:(Printf.sprintf "10.0.0.%d" (10 + i))
             ~seg:"lan"
             (Printf.sprintf "client%d" i)))
    @ [
        Topo.host ~profile:e13_profile ~addr:"10.0.0.1" ~seg:"lan" "primary";
        Topo.host ~profile:e13_profile ~addr:"10.0.0.2" ~seg:"lan"
          "secondary";
        Topo.group ~members:[ "primary"; "secondary" ] "pool";
      ]
  in
  let topo = Topo.build world spec in
  let clients =
    List.init n_clients (fun i ->
        Topo.host_of topo (Printf.sprintf "client%d" i))
  in
  let config =
    Failover_config.make ~service_ports ~bridge_cost:(Time.us 55) ()
  in
  let repl =
    Replicated.create_pool ~replicas:(Topo.group_of topo "pool") ~config ()
  in
  let service = Replicated.service_addr repl in
  let engine = World.engine world in
  (* idle watchdog: re-armed on every receipt, fires only if the peer
     goes silent for 5 s — the canonical almost-always-cancelled timer.
     Firing logs the stall rather than closing the connection: a killer
     watchdog turns the open-storm transient (RTTs briefly past 5 s at
     10k connections) into a permanent wedge of RSTs, while the engine
     sees the identical schedule/cancel churn either way. *)
  let watchdog_fires = ref 0 in
  let rearm_watchdog slot _tcb =
    (match !slot with Some id -> Engine.cancel engine id | None -> ());
    slot :=
      Some (Engine.schedule engine ~delay:watchdog_delay (fun () ->
                incr watchdog_fires))
  in
  List.iter
    (fun port ->
      Replicated.listen repl ~port ~on_accept:(fun ~role:_ tcb ->
          let watchdog = ref None in
          let got = ref 0 in
          Tcb.set_on_data tcb (fun d ->
              rearm_watchdog watchdog tcb;
              got := !got + String.length d;
              while !got >= String.length request do
                got := !got - String.length request;
                ignore (Tcb.send tcb reply)
              done);
          Tcb.set_on_eof tcb (fun () ->
              (match !watchdog with
              | Some id -> Engine.cancel engine id
              | None -> ());
              Tcb.close tcb)))
    service_ports;
  let completed = ref 0 in
  let received = ref 0 in
  let live = ref 0 in
  let peak_live = ref 0 in
  let n_ports = List.length service_ports in
  for i = 0 to conns - 1 do
    let client = List.nth clients (i mod n_clients) in
    let port = List.nth service_ports (i mod n_ports) in
    (* per-connection round period ~1 s, staggered so rounds spread
       instead of beating in phase *)
    let period = Time.ms 900 + (i mod 997) * Time.us 100 in
    (* 150 us stagger keeps the open storm itself (~10 service-addressed
       frames per open through the snooping secondary) under capacity *)
    ignore
      (Engine.schedule engine ~delay:(i * Time.us 150) (fun () ->
           let c =
             Stack.connect (Host.tcp client) ~remote:(service, port) ()
           in
           let watchdog = ref None in
           let got = ref 0 in
           let round = ref 0 in
           let fire_round () =
             incr round;
             ignore (Tcb.send c request)
           in
           Tcb.set_on_established c (fun () ->
               incr live;
               if !live > !peak_live then peak_live := !live;
               fire_round ());
           Tcb.set_on_data c (fun d ->
               received := !received + String.length d;
               rearm_watchdog watchdog c;
               got := !got + String.length d;
               if !got >= !round * String.length reply then
                 if !round >= rounds then begin
                   (match !watchdog with
                   | Some id -> Engine.cancel engine id
                   | None -> ());
                   incr completed;
                   decr live;
                   Tcb.close c
                 end
                 else
                   ignore
                     (Engine.schedule engine ~delay:period (fun () ->
                          fire_round ())))))
  done;
  let t0 = Unix.gettimeofday () in
  (* run in 100 ms slices until every connection finished its rounds
     (cap: 300 simulated seconds) *)
  let budget = ref 3000 in
  while !completed < conns && !budget > 0 do
    World.run world ~for_:(Time.ms 100);
    decr budget
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    conns;
    completed = !completed;
    bytes = !received;
    events = Engine.processed engine;
    sim_ns = World.now world;
    peak_live = !peak_live;
    wdog_fires = !watchdog_fires;
    wall_s;
    fingerprint = metrics_fingerprint world;
  }

let events_per_sec o =
  if o.wall_s <= 0.0 then infinity else float_of_int o.events /. o.wall_s

(* Peak RSS of this process (VmHWM).  Each connection count runs in its
   own process, so the reading belongs to that size alone. *)
let peak_rss_kb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
          close_in ic;
          int_of_string
            (String.trim
               (String.sub line 6 (String.length line - 6 - 3)))
        end
        else scan ()
      | exception End_of_file ->
        close_in ic;
        0
    in
    scan ()
  with Sys_error _ -> 0

(* [f ()] computed in a forked child and marshalled back, paired with
   [true]; or computed in this process, paired with [false], when fork
   is unavailable (OCaml refuses to fork once a process has spawned
   domains, e.g. an earlier experiment run with --jobs > 1). *)
let in_fresh_process (type a) (f : unit -> a) : a * bool =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | exception Failure _ ->
    Unix.close r;
    Unix.close w;
    (f (), false)
  | 0 ->
    Unix.close r;
    let res = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc (res : (a, string) result) [];
    close_out oc;
    flush_all ();
    Unix._exit 0
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let res : (a, string) result = Marshal.from_channel ic in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match res with Ok v -> (v, true) | Error m -> failwith m)

let run_exp ~conn_counts ~trials =
  print_header
    (Printf.sprintf
       "E13: high-connection worlds (conns in {%s}, %d trial%s, %d job%s)"
       (String.concat ", " (List.map string_of_int conn_counts))
       trials
       (if trials = 1 then "" else "s")
       !jobs
       (if !jobs = 1 then "" else "s"));
  Printf.printf "%-6s %8s %8s %10s %12s %10s %9s %6s %34s\n" "trial" "conns"
    "done" "bytes" "events" "sim[ms]" "peak-live" "wdog"
    "metrics-fingerprint";
  let total_events = ref 0 in
  let all_ok = ref true in
  let metrics = ref None in
  let sizes =
    List.map
      (fun conns ->
        let (outcomes, rss, json), fresh =
          in_fresh_process (fun () ->
              let outcomes =
                map_trials trials (fun i ->
                    one_trial ~conns ~seed:(13_000 + i))
              in
              (outcomes, peak_rss_kb (), last_metrics_json ()))
        in
        metrics := json;
        (* deterministic table: identical bytes across jobs *)
        List.iteri
          (fun i o ->
            total_events := !total_events + o.events;
            if o.completed <> o.conns then all_ok := false;
            Printf.printf "%-6d %8d %8d %10d %12d %10.1f %9d %6d %34s\n" i
              o.conns o.completed o.bytes o.events
              (float_of_int o.sim_ns /. 1e6)
              o.peak_live o.wdog_fires o.fingerprint)
          outcomes;
        let med_eps = Stats.median (List.map events_per_sec outcomes) in
        (conns, med_eps, rss, fresh, List.hd outcomes))
      conn_counts
  in
  (* timing section: intentionally NOT part of the identity contract *)
  Printf.printf "\n%8s %14s %12s %8s\n" "conns" "median-ev/s" "peak-RSS[kB]"
    "process";
  List.iter
    (fun (conns, med_eps, rss, fresh, _) ->
      Printf.printf "%8d %14.0f %12d %8s\n" conns med_eps rss
        (if fresh then "fresh" else "shared"))
    sizes;
  (* machine-readable lines for BENCH_highconn.json: the summary is
     sim-deterministic (CI diffs it across --jobs and gates it against
     the baseline), the timing line is not *)
  List.iter
    (fun (conns, med_eps, rss, fresh, o) ->
      Printf.printf
        "[highconn-summary] {\"conns\":%d,\"trials\":%d,\"jobs\":%d,\
         \"events\":%d,\"sim_ms\":%.1f,\"fingerprint\":%S,\
         \"all_completed\":%b}\n"
        conns trials !jobs o.events
        (float_of_int o.sim_ns /. 1e6)
        o.fingerprint !all_ok;
      Printf.printf
        "[highconn-timing] {\"conns\":%d,\"median_events_per_sec\":%.0f,\
         \"peak_rss_kb\":%d,\"fresh_process\":%b}\n%!"
        conns med_eps rss fresh)
    sizes;
  events_line ~exp:"highconn" !total_events;
  Option.iter (write_metrics ~exp:"highconn") !metrics
