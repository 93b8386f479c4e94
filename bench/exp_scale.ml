(* E9 — scale macro-benchmark (not in the paper): hundreds of concurrent
   failover connections through ONE world.

   This is the simulator-throughput benchmark that seeds the perf
   trajectory: it reports how many simulated events the engine retires
   per wall-clock second and how much wall time one simulated second
   costs, under a workload dominated by the hot paths the north star
   cares about — medium fan-out, TCP segmentation, bridge merging.

   Topology: [n_clients] client hosts and one replicated pair on a
   shared 100 Mb/s segment.  [conns] connections open with a small
   stagger, round-robin over clients and service ports; each sends a
   4-byte request and the replicated server answers with [reply_size]
   bytes; the client closes after the full reply.

   The trial is deterministic for a given seed, so events/sec numbers
   are comparable run-to-run; wall-clock varies with the machine, which
   is why BENCH_scale.json records the host's core count alongside. *)

open Harness
module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Replicated = Tcpfo_core.Replicated
module Failover_config = Tcpfo_core.Failover_config
module Stats = Tcpfo_util.Stats

let service_ports = [ 6000; 6001; 6002; 6003; 6004; 6005; 6006; 6007 ]
let n_clients = 4
let request = "GET\n"

type outcome = {
  conns : int;
  completed : int;
  bytes : int;
  events : int;
  sim_ns : int;
  wall_s : float;
}

let one_trial ~conns ~reply_size ~seed =
  let world = World.create ~seed () in
  note_world world;
  let spec =
    (Topo.segment "lan"
    :: List.init n_clients (fun i ->
           Topo.host ~profile:paper_profile
             ~addr:(Printf.sprintf "10.0.0.%d" (10 + i))
             ~seg:"lan"
             (Printf.sprintf "client%d" i)))
    @ [
        Topo.host ~profile:paper_profile ~addr:"10.0.0.1" ~seg:"lan" "primary";
        Topo.host ~profile:paper_profile ~addr:"10.0.0.2" ~seg:"lan"
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
  List.iter
    (fun port ->
      Replicated.listen repl ~port ~on_accept:(fun ~role:_ tcb ->
          let got = ref 0 in
          Tcb.set_on_data tcb (fun d ->
              got := !got + String.length d;
              if !got >= String.length request then begin
                got := min_int; (* reply exactly once *)
                let off = ref 0 in
                let rec pump () =
                  if !off < reply_size then begin
                    let want = min 8192 (reply_size - !off) in
                    let n = Tcb.send tcb (String.make want 'd') in
                    off := !off + n;
                    if n < want then Tcb.set_on_drain tcb pump else pump ()
                  end
                in
                pump ()
              end);
          Tcb.set_on_eof tcb (fun () -> Tcb.close tcb)))
    service_ports;
  let engine = World.engine world in
  let completed = ref 0 in
  let received = ref 0 in
  let n_ports = List.length service_ports in
  for i = 0 to conns - 1 do
    let client = List.nth clients (i mod n_clients) in
    let port = List.nth service_ports (i mod n_ports) in
    (* stagger the opens so the handshake burst does not collapse into
       one giant collision storm *)
    ignore
      (Engine.schedule engine ~delay:(i * Time.us 200) (fun () ->
           let c =
             Stack.connect (Host.tcp client) ~remote:(service, port) ()
           in
           let got = ref 0 in
           Tcb.set_on_established c (fun () -> ignore (Tcb.send c request));
           Tcb.set_on_data c (fun d ->
               got := !got + String.length d;
               received := !received + String.length d;
               if !got >= reply_size then begin
                 incr completed;
                 Tcb.close c
               end)))
  done;
  let t0 = Unix.gettimeofday () in
  (* drive in 100 ms slices until every connection completed (cap: 120
     simulated seconds), so idle heartbeat ticks never dilute the rate *)
  let budget = ref 1200 in
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
    wall_s;
  }

let events_per_sec o =
  if o.wall_s <= 0.0 then infinity else float_of_int o.events /. o.wall_s

(* wall-clock seconds needed to simulate one second *)
let wall_per_sim_sec o =
  if o.sim_ns <= 0 then nan else o.wall_s /. (float_of_int o.sim_ns /. 1e9)

let run_exp ~conns ~reply_size ~trials =
  print_header
    (Printf.sprintf
       "E9: simulator throughput at scale (%d concurrent failover \
        connections, %d B replies, %d trial%s, %d job%s)"
       conns reply_size trials
       (if trials = 1 then "" else "s")
       !jobs
       (if !jobs = 1 then "" else "s"));
  let wall0 = Unix.gettimeofday () in
  let outcomes =
    map_trials trials (fun i -> one_trial ~conns ~reply_size ~seed:(9000 + i))
  in
  let wall_total = Unix.gettimeofday () -. wall0 in
  Printf.printf "%-6s %10s %6s %12s %10s %10s %14s %12s\n" "trial" "conns"
    "done" "bytes" "sim[ms]" "wall[s]" "events" "events/s";
  List.iteri
    (fun i o ->
      Printf.printf "%-6d %10d %6d %12d %10.1f %10.3f %14d %12.0f\n" i
        o.conns o.completed o.bytes
        (float_of_int o.sim_ns /. 1e6)
        o.wall_s o.events (events_per_sec o))
    outcomes;
  let eps = List.map events_per_sec outcomes in
  let med_eps = Stats.median eps in
  let med_wps = Stats.median (List.map wall_per_sim_sec outcomes) in
  let all_done = List.for_all (fun o -> o.completed = o.conns) outcomes in
  Printf.printf
    "median: %.0f events/s; %.3f wall-s per simulated-s; %s\n" med_eps
    med_wps
    (if all_done then "all connections completed"
     else "WARNING: some connections did not complete");
  let total f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let events = total (fun o -> o.events) in
  (* machine-readable line for BENCH_scale.json bookkeeping; [events]
     and [bytes] are simulated totals over all trials, deterministic
     per seed and gated exactly by scripts/bench_compare.sh *)
  Printf.printf
    "[scale-summary] {\"conns\":%d,\"reply_size\":%d,\"trials\":%d,\
     \"events\":%d,\"bytes\":%d,\"jobs\":%d,\
     \"median_events_per_sec\":%.0f,\"median_wall_s_per_sim_s\":%.4f,\
     \"suite_wall_s\":%.3f,\"all_completed\":%b}\n%!"
    conns reply_size trials events
    (total (fun o -> o.bytes))
    !jobs med_eps med_wps wall_total all_done;
  events_line ~exp:"scale" events;
  dump_metrics ~exp:"scale"
