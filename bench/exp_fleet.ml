(* E15 — dispatcher fleet tier: one sharded service address in front of
   [pools] two-replica pools, thousands of client connections arriving
   in a steady wave while a rotating sequence of kill/repair cycles
   takes down one shard replica after another (primaries and
   secondaries alternating).  The §2 transparency claim, scaled to a
   fleet: every connection the clients open against the ONE fleet
   address must complete byte-exactly with no RST, whichever shard it
   was pinned to and whatever that shard was going through.

   Each cycle also proves the gradual-shifting machinery end to end:
   the victim shard's weight must dip below max while the failure is
   detected/repaired (new flows drain to siblings — [drained] counts
   the flows the weighted router actually moved) and must be ramped
   back to max, state Healthy, before the cycle ends.

   Determinism contract (CI gates on it): for a fixed seed the
   [fleet-summary] line minus the "jobs" field — completions, resets,
   dispatcher counters, cycle count, total events — is byte-identical
   across --jobs 1|2.  Wall-clock is reported separately. *)

open Harness
module Engine = Tcpfo_sim.Engine
module Dispatch = Tcpfo_dispatch.Dispatch
module Registry = Tcpfo_obs.Registry
module Primary_bridge = Tcpfo_core.Primary_bridge

let n_clients = 8
let service_port = 7
let request = "get\n"
let reply_size = 2048
let open_gap = Time.us 500

type outcome = {
  pools : int;
  conns : int;
  cycles : int; (* kill/repair cycles completed *)
  cycles_ramped : int; (* cycles whose victim weight dipped AND returned *)
  completed : int; (* connections that reached EOF and closed *)
  ok : int; (* of [completed], byte-exact replies *)
  resets : int; (* RSTs seen by any client *)
  counters : Dispatch.counters;
  events : int;
  snoop_ns : int; (* receive time snooping shard replicas spent on
                     captured frames they then dropped *)
  stale : int; (* primary-bridge entries still Active for a connection
                  their host holds no live TCB for (§8 never reached) *)
  sim_ns : int;
  wall_s : float;
}

let one_trial ~pools:n_pools ~conns ~cycles ~seed =
  let world = World.create ~seed () in
  note_world world;
  let gw = "10.0.0.254" in
  let shard_name i = Printf.sprintf "shard%d" i in
  (* server-class hosts on gigabit wires: the paper's testbed CPU would
     saturate under a whole fleet's worth of connection setups, and one
     back wire carries every shard *)
  let spec =
    [ Topo.segment ~config:gigabit_lan "front";
      Topo.segment ~config:gigabit_lan "back" ]
    @ List.init n_clients (fun i ->
          Topo.host ~profile:server_profile
            ~addr:(Printf.sprintf "10.1.0.%d" (10 + i))
            ~seg:"front"
            (Printf.sprintf "client%d" i))
    @ List.concat
        (List.init n_pools (fun i ->
             [
               Topo.host ~profile:server_profile ~gateway:gw
                 ~addr:(Printf.sprintf "10.0.0.%d" (1 + (2 * i)))
                 ~seg:"back"
                 (Printf.sprintf "s%da" i);
               Topo.host ~profile:server_profile ~gateway:gw
                 ~addr:(Printf.sprintf "10.0.0.%d" (2 + (2 * i)))
                 ~seg:"back"
                 (Printf.sprintf "s%db" i);
             ]))
    @ List.init n_pools (fun i ->
          Topo.group
            ~members:[ Printf.sprintf "s%da" i; Printf.sprintf "s%db" i ]
            (shard_name i))
    @ [
        Topo.service ~seg:"front" ~addr:"10.1.0.1" "fleet";
        Topo.dispatch ~service:"fleet" ~back:gw
          ~shards:(List.init n_pools shard_name)
          "disp";
      ]
  in
  let topo = Topo.build world spec in
  let back = Topo.segment_of topo "back" in
  let clients =
    Array.init n_clients (fun i ->
        Topo.host_of topo (Printf.sprintf "client%d" i))
  in
  let config = Failover_config.make ~service_ports:[ service_port ] () in
  let disp, shard_pools = Dispatch.of_topo topo ~name:"disp" ~config () in
  let service = Dispatch.service disp in
  let max_w = Dispatch.default_config.Dispatch.max_weight in
  let reply = String.init reply_size (fun i -> Char.chr (32 + ((i * 7) mod 95))) in
  List.iter
    (fun (_, pool) ->
      Replicated.listen pool ~port:service_port ~on_accept:(fun ~role:_ tcb ->
          let got = ref 0 in
          Tcb.set_on_data tcb (fun d ->
              got := !got + String.length d;
              if !got >= String.length request then begin
                got := !got - String.length request;
                ignore (Tcb.send tcb reply);
                Tcb.close tcb
              end)))
    shard_pools;

  (* the client wave: [conns] request/response connections against the
     single fleet address, one every [open_gap], round-robin over the
     client hosts — the wave spans every kill/repair cycle below *)
  let engine = World.engine world in
  let completed = ref 0 in
  let ok = ref 0 in
  let resets = ref 0 in
  for i = 0 to conns - 1 do
    ignore
      (Engine.schedule engine ~delay:(i * open_gap) (fun () ->
           let cl = clients.(i mod n_clients) in
           let c = Stack.connect (Host.tcp cl) ~remote:(service, service_port) () in
           let buf = Buffer.create reply_size in
           Tcb.set_on_established c (fun () -> ignore (Tcb.send c request));
           Tcb.set_on_data c (fun d -> Buffer.add_string buf d);
           Tcb.set_on_reset c (fun () -> incr resets);
           Tcb.set_on_eof c (fun () ->
               incr completed;
               if Buffer.contents buf = reply then incr ok;
               Tcb.close c)))
  done;

  (* rotating kill/repair cycles, driven as a polled state machine
     between run slices: kill one replica of shard (c mod pools) —
     primaries on even cycles, secondaries on odd — wait for the pool
     to notice, reintegrate a fresh host ([reintegrate] refuses while a
     §5 takeover is in flight, so it is simply retried next slice), and
     only move on once the pool is whole again AND the dispatcher has
     ramped the shard back to full weight. *)
  let cycle = ref 0 in
  let stage = ref `Idle in
  let next_kill_at = ref (Time.ms 30) in
  let min_w = ref max_w in
  let cycles_ramped = ref 0 in
  let repair_host = ref None in
  let gw_addr = Tcpfo_packet.Ipaddr.of_string gw in
  let advance () =
    if !cycle < cycles then begin
      let sname = shard_name (!cycle mod n_pools) in
      let pool = List.assoc sname shard_pools in
      let w = Dispatch.weight disp sname in
      if w < !min_w then min_w := w;
      let try_reintegrate h =
        match Replicated.reintegrate pool ~secondary:h with
        | () -> stage := `Settle
        | exception Invalid_argument _ -> ()
      in
      match !stage with
      | `Idle ->
        if World.now world >= !next_kill_at then begin
          min_w := max_w;
          if !cycle mod 2 = 0 then Replicated.kill_primary pool
          else Replicated.kill_secondary pool;
          stage := `Detect
        end
      | `Detect ->
        if Replicated.status pool <> `Normal then
          stage := `Repair (World.now world + Time.ms 2)
      | `Repair at ->
        if World.now world >= at then begin
          match !repair_host with
          | Some h -> try_reintegrate h
          | None ->
            let h =
              World.add_host world back
                ~name:(Printf.sprintf "fix%d" !cycle)
                ~addr:(Printf.sprintf "10.0.0.%d" (100 + !cycle))
                ~profile:server_profile ()
            in
            Host.set_default_via_lan h ~gateway:gw_addr;
            World.warm_arp (h :: Replicated.replicas pool);
            Topo.warm_dispatch_arp topo "disp" [ h ];
            Dispatch.arm_probe_responder h;
            repair_host := Some h;
            try_reintegrate h
        end
      | `Settle ->
        if
          Replicated.status pool = `Normal
          && Replicated.pending_transfers pool = 0
          && Dispatch.weight disp sname = max_w
          && Dispatch.state disp sname = Dispatch.Healthy
        then begin
          if !min_w < max_w then incr cycles_ramped;
          incr cycle;
          stage := `Idle;
          repair_host := None;
          next_kill_at := World.now world + Time.ms 5
        end
    end
  in
  let t0 = Unix.gettimeofday () in
  (* 1 ms slices: fine enough to watch every decay/ramp step of the
     weight machinery (cap: 30 simulated seconds) *)
  let budget = ref 30_000 in
  while (!cycle < cycles || !completed < conns) && !budget > 0 do
    World.run world ~for_:(Time.ms 1);
    advance ();
    decr budget
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    pools = n_pools;
    conns;
    cycles = !cycle;
    cycles_ramped = !cycles_ramped;
    completed = !completed;
    ok = !ok;
    resets = !resets;
    counters = Dispatch.counters disp;
    events = Engine.processed engine;
    snoop_ns =
      (let m = World.metrics world in
       List.fold_left
         (fun acc k ->
           if String.ends_with ~suffix:".ip.snoop_busy_ns" k then
             acc + Registry.counter_value m k
           else acc)
         0 (Registry.names m));
    stale =
      List.fold_left
        (fun acc (_, pool) ->
          acc + Primary_bridge.stale_count (Replicated.primary_bridge pool))
        0 shard_pools;
    sim_ns = World.now world;
    wall_s;
  }

let trial_ok ~conns ~cycles o =
  o.completed = conns && o.ok = conns && o.resets = 0 && o.cycles = cycles
  && o.cycles_ramped = cycles
  && o.counters.Dispatch.refused = 0
  && o.counters.Dispatch.isolation_drops = 0
  && o.counters.Dispatch.drained > 0

let run_exp ~pools ~conns ~cycles ~trials =
  print_header
    (Printf.sprintf
       "E15: dispatcher fleet (%d pools, %d connections, %d kill/repair \
        cycles, %d trial%s, %d job%s)"
       pools conns cycles trials
       (if trials = 1 then "" else "s")
       !jobs
       (if !jobs = 1 then "" else "s"));
  let outcomes =
    map_trials trials (fun i -> one_trial ~pools ~conns ~cycles ~seed:(15_000 + i))
  in
  Printf.printf "%-6s %6s %6s %6s %6s %7s %7s %8s %7s %6s %12s %10s\n" "trial"
    "done" "ok" "resets" "cycles" "ramped" "routed" "drained" "refused"
    "isol" "events" "sim[ms]";
  let all_ok = ref true in
  List.iteri
    (fun i o ->
      if not (trial_ok ~conns ~cycles o) then all_ok := false;
      Printf.printf "%-6d %6d %6d %6d %6d %7d %7d %8d %7d %6d %12d %10.1f\n" i
        o.completed o.ok o.resets o.cycles o.cycles_ramped
        o.counters.Dispatch.routed o.counters.Dispatch.drained
        o.counters.Dispatch.refused o.counters.Dispatch.isolation_drops
        o.events
        (float_of_int o.sim_ns /. 1e6))
    outcomes;
  (* timing, intentionally outside the identity contract *)
  List.iteri
    (fun i o -> Printf.printf "  trial %d wall-clock: %.2fs\n" i o.wall_s)
    outcomes;
  (* the process's peak: with --exp all it covers the experiments before
     E15 too *)
  Printf.printf "[fleet-timing] {\"peak_rss_kb\":%d}\n" (peak_rss_kb ());
  let o = List.hd outcomes in
  let total_events = List.fold_left (fun a o -> a + o.events) 0 outcomes in
  Printf.printf
    "[fleet-summary] {\"pools\":%d,\"conns\":%d,\"cycles\":%d,\"trials\":%d,\
     \"jobs\":%d,\"completed\":%d,\"ok\":%d,\"resets\":%d,\
     \"cycles_ramped\":%d,\"routed\":%d,\"drained\":%d,\"refused\":%d,\
     \"unmatched\":%d,\"isolation_drops\":%d,\"probes_sent\":%d,\
     \"probe_replies\":%d,\"shift_transitions\":%d,\"events\":%d,\
     \"snoop_ms\":%.3f,\"stale_entries\":%d,\"sim_ms\":%.1f,\"all_ok\":%b}\n%!"
    o.pools o.conns o.cycles trials !jobs o.completed o.ok o.resets
    o.cycles_ramped o.counters.Dispatch.routed o.counters.Dispatch.drained
    o.counters.Dispatch.refused o.counters.Dispatch.unmatched
    o.counters.Dispatch.isolation_drops o.counters.Dispatch.probes_sent
    o.counters.Dispatch.probe_replies o.counters.Dispatch.shift_transitions
    o.events
    (float_of_int o.snoop_ns /. 1e6)
    o.stale
    (float_of_int o.sim_ns /. 1e6)
    !all_ok;
  events_line ~exp:"fleet" total_events;
  dump_metrics ~exp:"fleet"
