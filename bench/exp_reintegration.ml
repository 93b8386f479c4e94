(* E11 — mass reintegration (not in the paper): cost of re-replicating
   live BULK connections onto a repaired host, swept over snapshot size
   (full vs delta), the connection count, and control-channel loss.

   Topology: [n_clients] clients, a replicated pair and one spare host
   on a shared gigabit LAN (Harness.server_profile: the paper-profile
   CPU saturates below what thousands of bulk connections generate, and
   10k of them would drown its 100 Mb/s wire).  Each connection uploads
   one 4 KiB block; the service replies with a 18-byte receipt per
   block.  Uploads are what the pool retains for replay, so by kill
   time every connection carries a fat retained-input history — the
   worst case for full snapshots.

   The [mode] axis picks the snapshot form indirectly, exactly as a real
   deployment would: [Delta] rows model a checkpointing application that
   calls {!Tcb.checkpoint} at every block boundary, so captures ship as
   delta snapshots (post-checkpoint input only); [Full] rows never
   checkpoint and ship the whole history (replay base 0).  Offers go
   through the one paced, windowed scheduler ({!Hot_transfer}).

   Choreography per trial: connections open and upload block #1; the
   secondary is killed; after detection a fresh host is reintegrated and
   every live connection re-replicates onto it — the reported latency is
   sim-time from [reintegrate] to [Transfers_complete].  The payoff
   check rides along: block #2 is uploaded, then the ORIGINAL primary is
   killed too, and block #3 must still round-trip byte-exactly on the
   repaired host.  A trial is ok only when every receipt stream is exact
   and RST-free through both failovers.

   Everything is seeded and simulated, so the table is byte-identical
   across --jobs 1/2/4. *)

open Harness
module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Replicated = Tcpfo_core.Replicated
module Failover_config = Tcpfo_core.Failover_config
module Registry = Tcpfo_obs.Registry
module Stats = Tcpfo_util.Stats
module Injector = Tcpfo_fault.Injector

let service_ports = [ 7000; 7001; 7002; 7003 ]
let n_clients = 4
let block_size = 4096

type mode = Full | Delta

let mode_name = function Full -> "full" | Delta -> "delta"

(* One upload block; the first 16 bytes name the connection and phase so
   the receipt stream is checkable per connection. *)
let block phase i =
  let head = Printf.sprintf "%c%09d:" phase i in
  head ^ String.make (block_size - String.length head) '.'

let receipt phase i = "R:" ^ String.sub (block phase i) 0 16

type outcome = {
  conns : int;
  transferred : int;
  xfer_bytes : int;  (** sealed snapshot bytes over the control channel *)
  retransmits : int;  (** statex chunk retransmissions *)
  datagrams : int;  (** statex datagrams sent, both directions *)
  checkpoints : int;  (** application checkpoints taken (delta rows) *)
  paced : int;  (** offers issued by the paced scheduler *)
  latency_us : float;  (** reintegrate -> Transfers_complete, sim time *)
  resets : int;  (** RSTs seen by clients — client-visible disruption *)
  ok : bool;  (** every stream exact and RST-free after BOTH failovers *)
}

let one_trial ~conns ~loss ~mode ~seed =
  let world = World.create ~seed () in
  note_world world;
  let spec =
    (Topo.segment ~config:gigabit_lan "lan"
    :: List.init n_clients (fun i ->
           Topo.host ~profile:server_profile
             ~addr:(Printf.sprintf "10.0.0.%d" (10 + i))
             ~seg:"lan"
             (Printf.sprintf "client%d" i)))
    @ [
        Topo.host ~profile:server_profile ~addr:"10.0.0.1" ~seg:"lan"
          "primary";
        Topo.host ~profile:server_profile ~addr:"10.0.0.2" ~seg:"lan"
          "secondary";
        Topo.group ~members:[ "primary"; "secondary" ] "pool";
      ]
  in
  let topo = Topo.build world spec in
  let lan = Topo.segment_of topo "lan" in
  let clients =
    List.init n_clients (fun i ->
        Topo.host_of topo (Printf.sprintf "client%d" i))
  in
  let repl =
    Replicated.create_pool ~replicas:(Topo.group_of topo "pool")
      ~config:(Failover_config.make ~service_ports ())
      ()
  in
  List.iter
    (fun port ->
      Replicated.listen repl ~port ~on_accept:(fun ~role:_ tcb ->
          let pending = Buffer.create block_size in
          Tcb.set_on_data tcb (fun d ->
              Buffer.add_string pending d;
              while Buffer.length pending >= block_size do
                let b = Buffer.sub pending 0 block_size in
                let rest =
                  Buffer.sub pending block_size
                    (Buffer.length pending - block_size)
                in
                Buffer.clear pending;
                Buffer.add_string pending rest;
                ignore (Tcb.send tcb ("R:" ^ String.sub b 0 16))
              done;
              (* the delta rows model a checkpointing application: at a
                 block boundary its state no longer depends on the
                 consumed input, so snapshots from here ship as deltas *)
              if mode = Delta && Buffer.length pending = 0 then
                Tcb.checkpoint tcb);
          Tcb.set_on_eof tcb (fun () -> Tcb.close tcb)))
    service_ports;
  let service = Replicated.service_addr repl in
  let engine = World.engine world in
  let bufs = Array.init conns (fun _ -> Buffer.create 64) in
  let resets = ref 0 in
  let tcbs = Array.make conns None in
  let n_ports = List.length service_ports in
  for i = 0 to conns - 1 do
    let client = List.nth clients (i mod n_clients) in
    let port = List.nth service_ports (i mod n_ports) in
    (* 150 us stagger keeps the open storm under host capacity *)
    ignore
      (Engine.schedule engine ~delay:(i * Time.us 150) (fun () ->
           let c =
             Stack.connect (Host.tcp client) ~remote:(service, port) ()
           in
           tcbs.(i) <- Some c;
           Tcb.set_on_established c (fun () ->
               ignore (Tcb.send c (block 'q' i)));
           Tcb.set_on_data c (fun d -> Buffer.add_string bufs.(i) d);
           Tcb.set_on_reset c (fun () -> incr resets)))
  done;
  (* Phases are completion-driven: run in slices until every connection
     holds [k] receipts (18 bytes each), capped — a 10k-connection bulk
     phase legitimately needs tens of simulated seconds to drain through
     one surviving host's RTO recovery, while a fixed window either
     wastes sim time at small scale or truncates the phase at large. *)
  let wait_receipts ~cap k =
    let done_ () =
      Array.for_all (fun b -> Buffer.length b >= k * 18) bufs
    in
    let slices = ref cap in
    while (not (done_ ())) && !slices > 0 do
      World.run world ~for_:(Time.ms 500);
      decr slices
    done
  in
  World.run world ~for_:(conns * Time.us 150);
  wait_receipts ~cap:60 1;
  (* failure #1: the secondary dies and is detected *)
  Replicated.kill_secondary repl;
  World.run world ~for_:(Time.sec 2.0);
  (* repair: fresh host joins, live connections re-replicate onto it *)
  let fresh =
    World.add_host world lan ~name:"repaired" ~addr:"10.0.0.3"
      ~profile:server_profile ()
  in
  (* warm_arp itself skips the dead secondary *)
  World.warm_arp (fresh :: Topo.hosts topo);
  (* the --loss axis: a loss burst on the LAN covering the transfers,
     which the streaming control channel must retransmit through *)
  if loss > 0.0 then begin
    let inj = Injector.create engine ~rng:(World.fresh_rng world) in
    ignore
      (Engine.schedule engine ~delay:0 (fun () ->
           Injector.loss_burst inj lan ~p:loss ~for_:(Time.ms 8)))
  end;
  let transferred = ref 0 in
  let latency_us = ref nan in
  let t_reint = World.now world in
  Replicated.set_on_event repl (function
    | Replicated.Transfers_complete n ->
      transferred := n;
      latency_us := float_of_int (World.now world - t_reint) /. 1e3
    | _ -> ());
  Replicated.reintegrate repl ~secondary:fresh;
  (* run in slices until the transfers settle (paced 10k-connection
     schedules legitimately take a while); cap at 30 simulated s *)
  let slices = ref 60 in
  while !transferred = 0 && !slices > 0 do
    World.run world ~for_:(Time.ms 500);
    decr slices
  done;
  World.run world ~for_:(Time.sec 1.0);
  (* stagger the bulk phases too, so 10k simultaneous 4 KiB uploads
     don't synchronize into one collision storm *)
  let send_all phase =
    Array.iteri
      (fun i c ->
        match c with
        | Some c ->
          ignore
            (Engine.schedule engine ~delay:(i * Time.us 150) (fun () ->
                 ignore (Tcb.send c (block phase i))))
        | None -> ())
      tcbs
  in
  send_all 'm';
  World.run world ~for_:(conns * Time.us 150);
  wait_receipts ~cap:60 2;
  World.run world ~for_:(Time.sec 1.0);
  (* failure #2: the surviving original dies; the repaired host must
     carry every connection onward in the original sequence space *)
  Replicated.kill_primary repl;
  World.run world ~for_:(Time.sec 2.5);
  send_all 'e';
  World.run world ~for_:(conns * Time.us 150);
  wait_receipts ~cap:120 3;
  World.run world ~for_:(Time.sec 1.0);
  let ok = ref (!resets = 0) in
  Array.iteri
    (fun i buf ->
      let want = receipt 'q' i ^ receipt 'm' i ^ receipt 'e' i in
      if Buffer.contents buf <> want then ok := false)
    bufs;
  let stats = Replicated.transfer_stats repl in
  let counter = Registry.counter_value (World.metrics world) in
  {
    conns;
    transferred = !transferred;
    xfer_bytes = stats.Tcpfo_statex.Transfer.transfer_bytes;
    retransmits = stats.Tcpfo_statex.Transfer.chunk_retransmits;
    datagrams = stats.Tcpfo_statex.Transfer.datagrams_sent;
    checkpoints = counter "statex.checkpoints";
    paced = counter "statex.paced_offers";
    latency_us = !latency_us;
    resets = !resets;
    ok = !ok;
  }

(* Disjoint deterministic seed blocks per point: every (loss, conns,
   mode) cell is independent and replayable on its own.  The constant
   salt is the one the paced rows carried when a burst scheduler shared
   this sweep, so every row replays its historical seeds. *)
let seed_of ~conns ~loss ~mode i =
  let loss_salt = int_of_float ((loss *. 1000.) +. 0.5) * 4099 in
  let mode_salt = match mode with Full -> 0 | Delta -> 17_389 in
  let pace_salt = 52_361 in
  11_000 + (100 * conns) + i + loss_salt + mode_salt + pace_salt

type row = {
  r_loss : float;
  r_conns : int;
  r_mode : mode;
  r_moved : float;
  r_bytes : float;
  r_rtx : float;
  r_dgrams : float;
  r_ckpt : float;
  r_lat : float;
  r_resets : float;
  r_ok : bool;
}

let print_row r =
  Printf.printf "%-6.2f %-8d %-6s %8.0f %12.0f %12.1f %6.0f %7.0f %6.0f \
                 %4.0f %14.1f %6s\n"
    r.r_loss r.r_conns (mode_name r.r_mode) r.r_moved r.r_bytes
    (r.r_bytes /. float_of_int r.r_conns)
    r.r_rtx r.r_dgrams r.r_ckpt r.r_resets r.r_lat
    (if r.r_ok then "yes" else "NO")

let row_of_point ~loss ~conns ~mode ~trials =
  let outcomes =
    map_trials trials (fun i ->
        one_trial ~conns ~loss ~mode ~seed:(seed_of ~conns ~loss ~mode i))
  in
  let med f = Stats.median (List.map f outcomes) in
  {
    r_loss = loss;
    r_conns = conns;
    r_mode = mode;
    r_moved = med (fun o -> float_of_int o.transferred);
    r_bytes = med (fun o -> float_of_int o.xfer_bytes);
    r_rtx = med (fun o -> float_of_int o.retransmits);
    r_dgrams = med (fun o -> float_of_int o.datagrams);
    r_ckpt = med (fun o -> float_of_int o.checkpoints);
    r_lat = med (fun o -> o.latency_us);
    r_resets = med (fun o -> float_of_int o.resets);
    r_ok = List.for_all (fun o -> o.ok && o.transferred = o.conns) outcomes;
  }

let row_json r =
  Printf.sprintf
    "{\"loss\":%.2f,\"conns\":%d,\"mode\":%S,\
     \"transferred\":%.0f,\"transfer_bytes\":%.0f,\"retransmits\":%.0f,\
     \"datagrams\":%.0f,\"checkpoints\":%.0f,\"resets\":%.0f,\
     \"latency_us\":%.1f,\"ok\":%b}"
    r.r_loss r.r_conns (mode_name r.r_mode) r.r_moved r.r_bytes r.r_rtx
    r.r_dgrams r.r_ckpt r.r_resets r.r_lat r.r_ok

let modes = [ Full; Delta ]

let run_exp ~conn_counts ~loss_rates ~big ~trials =
  print_header
    (Printf.sprintf
       "E11: mass reintegration — snapshot size (full|delta) x live \
        connections x control-channel loss (%d trial%s per point, %d \
        job%s)"
       trials
       (if trials = 1 then "" else "s")
       !jobs
       (if !jobs = 1 then "" else "s"));
  Printf.printf "%-6s %-8s %-6s %8s %12s %12s %6s %7s %6s %4s %14s %6s\n"
    "loss" "conns" "mode" "moved" "bytes" "bytes/conn" "rtx" "dgrams" "ckpt"
    "rst" "latency[us]" "ok";
  let points =
    List.concat_map
      (fun loss ->
        List.concat_map
          (fun conns ->
            List.map (fun mode -> (loss, conns, mode)) modes)
          conn_counts)
      loss_rates
  in
  let grid =
    List.map
      (fun (loss, conns, mode) ->
        let r = row_of_point ~loss ~conns ~mode ~trials in
        print_row r;
        r)
      points
  in
  (* the 10k point: delta must stay clean, and the full row is the
     baseline the >=2x latency claim is made against *)
  let big_rows =
    if big = 0 then []
    else begin
      Printf.printf "--- %d-connection point (1 trial, loss 0) ---\n" big;
      List.map
        (fun mode ->
          let r = row_of_point ~loss:0.0 ~conns:big ~mode ~trials:1 in
          print_row r;
          r)
        modes
    end
  in
  let rows = grid @ big_rows in
  let all_ok = List.for_all (fun r -> r.r_ok) rows in
  let find mode = List.find_opt (fun r -> r.r_mode = mode) big_rows in
  let speedup =
    match (find Full, find Delta) with
    | Some f, Some d when not (Float.is_nan f.r_lat) -> f.r_lat /. d.r_lat
    | _ -> 0.0
  in
  (match find Delta with
  | Some d ->
    Printf.printf
      "delta at %d conns: %.0f us reintegration, %.1fx faster than the \
       full-snapshot row\n"
      big d.r_lat speedup
  | None -> ());
  Printf.printf "%s\n"
    (if all_ok then "every row survived both failovers byte-exactly"
     else "WARNING: a row did not survive the second failover");
  (* machine-readable line for BENCH_reintegration.json bookkeeping *)
  Printf.printf
    "[reintegration-summary] {\"trials\":%d,\"jobs\":%d,\"all_ok\":%b,\
     \"big_conns\":%d,\"big_speedup\":%.2f,\"rows\":[%s]}\n%!"
    trials !jobs all_ok big speedup
    (String.concat "," (List.map row_json rows));
  dump_metrics ~exp:"reintegration"
