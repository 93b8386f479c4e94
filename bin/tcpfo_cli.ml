(* tcpfo — command-line driver for the TCP-failover simulator.

     dune exec bin/tcpfo_cli.exe -- failover --kill-at 50 --size 400 --trace
     dune exec bin/tcpfo_cli.exe -- failover --victim secondary
     dune exec bin/tcpfo_cli.exe -- trace --size 4

   The [failover] scenario downloads a reply through the replicated pair,
   crashes one replica at a chosen time, and reports stream integrity and
   the client-visible stall.  The [trace] scenario prints every TCP
   segment that crosses the wire of a small fault-free transfer — useful
   for seeing the bridge's sequence-number translation and joint ACKs. *)

module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module Obs = Tcpfo_obs.Obs
module Event = Tcpfo_obs.Event
module Registry = Tcpfo_obs.Registry
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Topo = Tcpfo_host.Topo
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Replicated = Tcpfo_core.Replicated
module Failover_config = Tcpfo_core.Failover_config
open Cmdliner

(* Subscribe a console printer to the world's event bus.  With [segments]
   every Segment_tx/Segment_rx is shown (the old per-host packet tap);
   without it only the control-plane events (divert, merge, hold,
   failover phases, ARP takeover) appear. *)
let attach_trace ?(segments = true) world =
  ignore
    (Event.Bus.attach_console
       ~filter:(fun ev -> segments || not (Event.is_segment ev))
       (Obs.bus (World.obs world)))

let print_stats world =
  Printf.printf "engine: %d events processed in %.3f simulated ms\n"
    (Engine.processed (World.engine world))
    (float_of_int (World.now world) /. 1e6);
  print_string (Registry.dump (World.metrics world))

let build_world ?fault_plan ?(standbys = 0) ~seed ~detector_ms ~trace () =
  let world = World.create ~seed () in
  let standby_names =
    List.init standbys (fun i -> Printf.sprintf "standby%d" (i + 1))
  in
  let topo =
    Topo.build world
      (Topo.segment "lan"
      :: Topo.host ~addr:"10.0.0.10" ~seg:"lan" "client"
      :: Topo.host ~addr:"10.0.0.1" ~seg:"lan" "primary"
      :: Topo.host ~addr:"10.0.0.2" ~seg:"lan" "secondary"
      :: (List.mapi
            (fun i name ->
              Topo.host ~addr:(Printf.sprintf "10.0.0.%d" (20 + i)) ~seg:"lan"
                name)
            standby_names
         @ [
             Topo.group
               ~members:("primary" :: "secondary" :: standby_names)
               "pool";
           ]))
  in
  let lan = Topo.segment_of topo "lan" in
  let client = Topo.host_of topo "client" in
  let primary = Topo.host_of topo "primary" in
  let secondary = Topo.host_of topo "secondary" in
  let config =
    Failover_config.make ~service_ports:[ 80 ]
      ~detector_timeout:(Time.ms detector_ms) ()
  in
  let repl =
    Replicated.create_pool ~replicas:(Topo.group_of topo "pool") ~config ()
  in
  (match fault_plan with
  | None -> ()
  | Some text -> (
    match Tcpfo_fault.Fault.parse text with
    | Error m ->
      prerr_endline ("tcpfo: bad --fault-plan: " ^ m);
      exit 2
    | Ok plan ->
      let env =
        {
          Tcpfo_fault.Injector.engine = World.engine world;
          rng = World.fresh_rng world;
          hosts =
            [
              ("client", client); ("primary", primary);
              ("secondary", secondary);
            ];
          nets = [ ("lan", Tcpfo_fault.Injector.Medium_net lan) ];
        }
      in
      ignore (Tcpfo_fault.Injector.install env plan)));
  if trace then attach_trace world;
  (world, lan, client, primary, secondary, repl)

(* the demo service, shared by pools and chains: once the 3-byte
   request is in, stream [reply] and close *)
let reply_app ~reply tcb =
  let got = ref 0 in
  Tcb.set_on_data tcb (fun d ->
      got := !got + String.length d;
      if !got >= 3 then Tcpfo_apps.Bulk.send_and_close tcb reply)

let serve_reply repl ~reply =
  Replicated.listen repl ~port:80 ~on_accept:(fun ~role:_ tcb ->
      reply_app ~reply tcb)

let run_failover victim kill_at_ms size_kb detector_ms trace stats seed
    fault_plan repair_at_ms rekill_at_ms standbys =
  let world, lan, client, primary, secondary, repl =
    build_world ?fault_plan ~standbys ~seed ~detector_ms
      ~trace:(trace && size_kb <= 16) ()
  in
  let reply =
    String.init (size_kb * 1024) (fun i -> Char.chr ((i * 31) land 0xFF))
  in
  serve_reply repl ~reply;
  Replicated.set_on_event repl (fun e ->
      Printf.printf "[%10.3f ms] %s\n%!"
        (Time.to_ms (World.now world))
        (Replicated.event_to_string e));
  let buf = Buffer.create (size_kb * 1024) in
  let last = ref Time.zero in
  let stall = ref 0 in
  let finished = ref None in
  let conn =
    Stack.connect (Host.tcp client) ~remote:(Replicated.service_addr repl, 80)
      ()
  in
  Tcb.set_on_established conn (fun () ->
      last := World.now world;
      ignore (Tcb.send conn "get"));
  Tcb.set_on_data conn (fun d ->
      let t = World.now world in
      stall := max !stall (t - !last);
      last := t;
      Buffer.add_string buf d);
  Tcb.set_on_eof conn (fun () -> finished := Some (World.now world));
  ignore
    (Engine.schedule (World.engine world) ~delay:(Time.ms kill_at_ms)
       (fun () ->
         Printf.printf "[%10.3f ms] crashing the %s\n%!"
           (Time.to_ms (World.now world))
           victim;
         match victim with
         | "secondary" -> Replicated.kill_secondary repl
         | _ -> Replicated.kill_primary repl));
  (match repair_at_ms with
  | None -> ()
  | Some ms ->
    ignore
      (Engine.schedule (World.engine world) ~delay:(Time.ms ms) (fun () ->
           if Replicated.status repl = `Normal then
             Printf.printf
               "[%10.3f ms] pair is healthy — nothing to reintegrate\n%!"
               (Time.to_ms (World.now world))
           else begin
             Printf.printf "[%10.3f ms] reintegrating a repaired host\n%!"
               (Time.to_ms (World.now world));
             let fresh =
               World.add_host world lan ~name:"repaired" ~addr:"10.0.0.3" ()
             in
             let survivor =
               if victim = "secondary" then primary else secondary
             in
             World.warm_arp [ client; survivor; fresh ];
             try Replicated.reintegrate repl ~secondary:fresh
             with Invalid_argument m ->
               Printf.printf "[%10.3f ms] reintegration refused: %s\n%!"
                 (Time.to_ms (World.now world))
                 m
           end)));
  (match rekill_at_ms with
  | None -> ()
  | Some ms ->
    ignore
      (Engine.schedule (World.engine world) ~delay:(Time.ms ms) (fun () ->
           Printf.printf "[%10.3f ms] crashing the surviving original\n%!"
             (Time.to_ms (World.now world));
           Replicated.kill_primary repl)));
  World.run world ~for_:(Time.sec 120.0);
  (match !finished with
  | Some t ->
    Printf.printf
      "transfer complete at %.3f ms; stream %s; max client stall %.3f ms\n"
      (Time.to_ms t)
      (if Buffer.contents buf = reply then "BYTE-EXACT" else "CORRUPTED")
      (Time.to_ms !stall)
  | None -> Printf.printf "transfer did not complete\n");
  (match repair_at_ms with
  | None -> ()
  | Some _ ->
    let s = Replicated.transfer_stats repl in
    Printf.printf
      "hot state transfer: %d offered, %d accepted, %d rejected, %d timed \
       out, %d snapshot bytes\n"
      s.Tcpfo_statex.Transfer.offers_sent s.Tcpfo_statex.Transfer.accepts
      s.Tcpfo_statex.Transfer.rejects s.Tcpfo_statex.Transfer.timeouts
      s.Tcpfo_statex.Transfer.transfer_bytes);
  if stats then print_stats world;
  if Buffer.contents buf = reply then 0 else 1

let run_trace size_kb stats seed =
  let world, _, client, _, _, repl =
    build_world ~seed ~detector_ms:30 ~trace:true ()
  in
  let reply =
    String.init (size_kb * 1024) (fun i -> Char.chr ((i * 31) land 0xFF))
  in
  serve_reply repl ~reply;
  let buf = Buffer.create 1024 in
  let conn =
    Stack.connect (Host.tcp client) ~remote:(Replicated.service_addr repl, 80)
      ()
  in
  Tcb.set_on_established conn (fun () -> ignore (Tcb.send conn "get"));
  Tcb.set_on_data conn (fun d -> Buffer.add_string buf d);
  World.run world ~for_:(Time.sec 5.0);
  Printf.printf "received %d bytes, %s\n" (Buffer.length buf)
    (if Buffer.contents buf = reply then "byte-exact" else "CORRUPTED");
  if stats then print_stats world;
  0

let victim_arg =
  Arg.(value & opt (enum [ ("primary", "primary"); ("secondary", "secondary") ])
         "primary"
       & info [ "victim" ] ~doc:"Which replica to crash.")

let kill_at_arg =
  Arg.(value & opt int 50 & info [ "kill-at" ] ~docv:"MS"
         ~doc:"Crash time in milliseconds.")

let size_arg =
  Arg.(value & opt int 400 & info [ "size" ] ~docv:"KB"
         ~doc:"Reply size in KB.")

let detector_arg =
  Arg.(value & opt int 30 & info [ "detector" ] ~docv:"MS"
         ~doc:"Fault-detector timeout in milliseconds.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ]
         ~doc:"Print every TCP segment (small transfers only).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Dump the metrics registry after the run.")

let fault_plan_arg =
  Arg.(value & opt (some string) None & info [ "fault-plan" ] ~docv:"PLAN"
         ~doc:"Scripted fault plan run alongside the scenario, e.g. \
               'at 10ms loss lan 0.3 for 5ms; at 30ms pause client; at \
               40ms resume client'.  Hosts: client, primary, secondary; \
               net: lan.  'pause'/'resume' freeze a host's timers and \
               traffic reversibly (a VM pause), unlike 'kill' which is a \
               permanent crash.")

let repair_at_arg =
  Arg.(value & opt (some int) None & info [ "repair-at" ] ~docv:"MS"
         ~doc:"Reintegrate a fresh host at this time (milliseconds); live \
               connections are re-replicated onto it via hot state \
               transfer.  Must be after the failure is detected.")

let rekill_at_arg =
  Arg.(value & opt (some int) None & info [ "rekill-at" ] ~docv:"MS"
         ~doc:"Crash the surviving original replica at this time \
               (milliseconds) — use with --repair-at to demonstrate a \
               connection surviving a second failover on the repaired \
               host.")

let standbys_arg =
  Arg.(value & opt int 0 & info [ "standbys" ] ~docv:"N"
         ~doc:"Cold standbys behind the active pair (an N+2 replica \
               pool).  When a replica dies the next standby is promoted \
               and live connections re-replicate onto it, so a later \
               --rekill-at cascades instead of ending the pool.")

let failover_cmd =
  Cmd.v (Cmd.info "failover" ~doc:"Crash a replica mid-transfer.")
    Term.(
      const run_failover $ victim_arg $ kill_at_arg $ size_arg $ detector_arg
      $ trace_arg $ stats_arg $ seed_arg $ fault_plan_arg $ repair_at_arg
      $ rekill_at_arg $ standbys_arg)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Fault-free transfer with a full packet trace.")
    Term.(const run_trace $ Arg.(value & opt int 4 & info [ "size" ]
                                   ~docv:"KB" ~doc:"Reply size in KB.")
          $ stats_arg $ seed_arg)

let run_chain n_replicas kills_ms size_kb trace stats seed =
  let world = World.create ~seed () in
  let lan = World.make_lan world () in
  let client = World.add_host world lan ~name:"client" ~addr:"10.0.0.10" () in
  let replicas =
    List.init n_replicas (fun i ->
        World.add_host world lan
          ~name:(Printf.sprintf "replica%d" i)
          ~addr:(Printf.sprintf "10.0.0.%d" (i + 1))
          ())
  in
  World.warm_arp (client :: replicas);
  if trace then attach_trace ~segments:false world;
  let chain =
    Tcpfo_core.Chain.create ~replicas ~config:Failover_config.default ()
  in
  Tcpfo_core.Chain.set_on_event chain (fun e ->
      Printf.printf "[%10.3f ms] %s\n%!"
        (Time.to_ms (World.now world))
        (Tcpfo_core.Chain.event_to_string e));
  let reply =
    String.init (size_kb * 1024) (fun i -> Char.chr ((i * 31) land 0xFF))
  in
  Tcpfo_core.Chain.listen chain ~port:80 ~on_accept:(fun ~replica:_ tcb ->
      reply_app ~reply tcb);
  let buf = Buffer.create (size_kb * 1024) in
  let finished = ref None in
  let conn =
    Stack.connect (Host.tcp client)
      ~remote:(Tcpfo_core.Chain.service_addr chain, 80)
      ()
  in
  Tcb.set_on_established conn (fun () -> ignore (Tcb.send conn "get"));
  Tcb.set_on_data conn (fun d -> Buffer.add_string buf d);
  Tcb.set_on_eof conn (fun () -> finished := Some (World.now world));
  List.iteri
    (fun i ms ->
      ignore
        (Engine.schedule (World.engine world) ~delay:(Time.ms ms) (fun () ->
             Printf.printf "[%10.3f ms] crashing replica %d\n%!"
               (Time.to_ms (World.now world))
               i;
             Tcpfo_core.Chain.kill chain i)))
    kills_ms;
  World.run world ~for_:(Time.sec 120.0);
  (match !finished with
  | Some t ->
    Printf.printf "transfer complete at %.3f ms; stream %s; survivors: %s\n"
      (Time.to_ms t)
      (if Buffer.contents buf = reply then "BYTE-EXACT" else "CORRUPTED")
      (String.concat ","
         (List.map string_of_int (Tcpfo_core.Chain.alive chain)))
  | None -> Printf.printf "transfer did not complete\n");
  if stats then print_stats world;
  if Buffer.contents buf = reply then 0 else 1

let chain_cmd =
  let n_arg =
    Arg.(value & opt int 3 & info [ "replicas" ] ~docv:"N"
           ~doc:"Chain length (>= 2).")
  in
  let kills_arg =
    Arg.(value & opt (list int) [ 40 ] & info [ "kill-at" ] ~docv:"MS,..."
           ~doc:"Crash replica 0 at the first time, replica 1 at the \
                 second, ... (milliseconds).")
  in
  Cmd.v
    (Cmd.info "chain"
       ~doc:"Daisy-chained replication under successive crashes.")
    Term.(const run_chain $ n_arg $ kills_arg $ size_arg $ trace_arg
          $ stats_arg $ seed_arg)

(* A small dispatcher fleet end to end: N two-replica shards behind one
   sharded service address, a download through the dispatcher's NAT,
   the pinned shard's replica crashed mid-stream, a repaired host
   reintegrated — with the per-shard weight timeline printed as the
   gradual-shifting machinery drains and restores the victim. *)
let run_fleet shards victim size_kb kill_at_ms repair_at_ms trace stats seed =
  let module Dispatch = Tcpfo_dispatch.Dispatch in
  let world = World.create ~seed () in
  let gw = "10.0.0.254" in
  let shard_name i = Printf.sprintf "shard%d" i in
  let spec =
    [ Topo.segment "front"; Topo.segment "back";
      Topo.host ~addr:"10.1.0.10" ~seg:"front" "client" ]
    @ List.concat
        (List.init shards (fun i ->
             [
               Topo.host ~gateway:gw
                 ~addr:(Printf.sprintf "10.0.0.%d" (1 + (2 * i)))
                 ~seg:"back"
                 (Printf.sprintf "s%da" i);
               Topo.host ~gateway:gw
                 ~addr:(Printf.sprintf "10.0.0.%d" (2 + (2 * i)))
                 ~seg:"back"
                 (Printf.sprintf "s%db" i);
             ]))
    @ List.init shards (fun i ->
          Topo.group
            ~members:[ Printf.sprintf "s%da" i; Printf.sprintf "s%db" i ]
            (shard_name i))
    @ [
        Topo.service ~seg:"front" ~addr:"10.1.0.1" "fleet";
        Topo.dispatch ~service:"fleet" ~back:gw
          ~shards:(List.init shards shard_name)
          "disp";
      ]
  in
  let topo = Topo.build world spec in
  let client = Topo.host_of topo "client" in
  if trace then attach_trace ~segments:false world;
  let config = Failover_config.make ~service_ports:[ 80 ] () in
  let disp, pools = Dispatch.of_topo topo ~name:"disp" ~config () in
  let reply =
    String.init (size_kb * 1024) (fun i -> Char.chr ((i * 31) land 0xFF))
  in
  List.iter (fun (_, pool) -> serve_reply pool ~reply) pools;
  List.iter
    (fun (name, pool) ->
      Replicated.set_on_event pool (fun e ->
          Printf.printf "[%10.3f ms] %s: %s\n%!"
            (Time.to_ms (World.now world))
            name
            (Replicated.event_to_string e)))
    pools;
  (* weight timeline: sample every millisecond, print on change *)
  let weights () =
    String.concat " "
      (List.map
         (fun (name, _) ->
           Printf.sprintf "%s=%d" name (Dispatch.weight disp name))
         pools)
  in
  let last_weights = ref (weights ()) in
  let rec watch () =
    ignore
      (Engine.schedule (World.engine world) ~delay:(Time.ms 1) (fun () ->
           let w = weights () in
           if w <> !last_weights then begin
             last_weights := w;
             Printf.printf "[%10.3f ms] weights: %s\n%!"
               (Time.to_ms (World.now world))
               w
           end;
           watch ()))
  in
  watch ();
  let buf = Buffer.create (size_kb * 1024) in
  let finished = ref None in
  let conn =
    Stack.connect (Host.tcp client) ~remote:(Dispatch.service disp, 80) ()
  in
  Tcb.set_on_established conn (fun () -> ignore (Tcb.send conn "get"));
  Tcb.set_on_data conn (fun d -> Buffer.add_string buf d);
  Tcb.set_on_eof conn (fun () -> finished := Some (World.now world));
  let victim_shard = ref (shard_name 0) in
  ignore
    (Engine.schedule (World.engine world) ~delay:(Time.ms kill_at_ms)
       (fun () ->
         (match
            Dispatch.pinned_shard disp
              ~client:(Host.addr client, snd (Tcb.local_endpoint conn))
          with
         | Some name -> victim_shard := name
         | None -> ());
         Printf.printf "[%10.3f ms] crashing the %s of %s (the pinned shard)\n%!"
           (Time.to_ms (World.now world))
           victim !victim_shard;
         let pool = List.assoc !victim_shard pools in
         match victim with
         | "secondary" -> Replicated.kill_secondary pool
         | _ -> Replicated.kill_primary pool));
  (match repair_at_ms with
  | None -> ()
  | Some ms ->
    ignore
      (Engine.schedule (World.engine world) ~delay:(Time.ms ms) (fun () ->
           let pool = List.assoc !victim_shard pools in
           Printf.printf "[%10.3f ms] reintegrating a repaired host into %s\n%!"
             (Time.to_ms (World.now world))
             !victim_shard;
           let fresh =
             World.add_host world
               (Topo.segment_of topo "back")
               ~name:"repaired" ~addr:"10.0.0.200" ()
           in
           Host.set_default_via_lan fresh
             ~gateway:(Tcpfo_packet.Ipaddr.of_string gw);
           World.warm_arp (fresh :: Topo.group_of topo !victim_shard);
           Topo.warm_dispatch_arp topo "disp" [ fresh ];
           Dispatch.arm_probe_responder fresh;
           try Replicated.reintegrate pool ~secondary:fresh
           with Invalid_argument m ->
             Printf.printf "[%10.3f ms] reintegration refused: %s\n%!"
               (Time.to_ms (World.now world))
               m)));
  World.run world ~for_:(Time.sec 10.0);
  (match !finished with
  | Some t ->
    Printf.printf "transfer complete at %.3f ms; stream %s\n" (Time.to_ms t)
      (if Buffer.contents buf = reply then "BYTE-EXACT" else "CORRUPTED")
  | None -> Printf.printf "transfer did not complete\n");
  let ctr = Dispatch.counters disp in
  Printf.printf
    "dispatcher: %d flows routed (%d drained to siblings), %d refused, %d \
     unmatched, %d isolation drops, %d probes (%d answered)\n"
    ctr.Dispatch.routed ctr.Dispatch.drained ctr.Dispatch.refused
    ctr.Dispatch.unmatched ctr.Dispatch.isolation_drops
    ctr.Dispatch.probes_sent ctr.Dispatch.probe_replies;
  Printf.printf "final weights: %s\n" (weights ());
  if stats then print_stats world;
  if Buffer.contents buf = reply then 0 else 1

let fleet_cmd =
  let shards_arg =
    Arg.(value & opt int 3 & info [ "shards" ] ~docv:"N"
           ~doc:"Number of two-replica shard pools behind the dispatcher.")
  in
  let repair_fleet_arg =
    Arg.(value & opt (some int) (Some 100) & info [ "repair-at" ] ~docv:"MS"
           ~doc:"Reintegrate a repaired host into the victim shard at this \
                 time (milliseconds); the shard's weight then ramps back \
                 to max.  Pass no value to skip repair.")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"A sharded dispatcher fleet: crash the pinned shard \
             mid-transfer and watch traffic drain and return.")
    Term.(
      const run_fleet $ shards_arg $ victim_arg $ size_arg $ kill_at_arg
      $ repair_fleet_arg $ trace_arg $ stats_arg $ seed_arg)

(* Parse and validate a topology file, then print the elaborated
   host/segment table — a dry run of exactly what Topo.build would
   construct (same MAC assignment, same declaration order). *)
let run_topo file validate_only seed =
  let read_all ic = really_input_string ic (in_channel_length ic) in
  let text =
    if file = "-" then In_channel.input_all stdin
    else
      match open_in_bin file with
      | ic ->
        let t = read_all ic in
        close_in ic;
        t
      | exception Sys_error m ->
        prerr_endline ("tcpfo: " ^ m);
        exit 2
  in
  match Topo.parse text with
  | Error m ->
    prerr_endline ("tcpfo: parse error: " ^ m);
    2
  | Ok spec -> (
    match Topo.validate spec with
    | Error m ->
      prerr_endline ("tcpfo: invalid topology: " ^ m);
      1
    | Ok () ->
      if validate_only then print_endline "topology OK"
      else begin
        let world = World.create ~seed () in
        print_string (Topo.to_table (Topo.build world spec))
      end;
      0)

let topo_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Topology spec file ('-' for stdin): lines of 'lan NAME', \
                 'link NAME bw=.. delay=..', 'host NAME ADDR SEGMENT \
                 [gw=ADDR]', 'router NAME SEGMENT LAN_ADDR LINK WAN_ADDR', \
                 'wanhost NAME ADDR LINK', 'group NAME MEMBER MEMBER...', \
                 'service NAME ADDR SEGMENT', 'dispatch NAME SHARD... \
                 service=NAME back=ADDR'; '#' comments.")
  in
  let validate_arg =
    Arg.(value & flag & info [ "validate" ]
           ~doc:"Only parse and validate; print nothing but the verdict.")
  in
  Cmd.v
    (Cmd.info "topo"
       ~doc:"Parse, validate and elaborate a declarative topology spec.  \
             Exits 0 when the spec is well formed, 1 when it parses but \
             fails validation, 2 on a parse error.")
    Term.(const run_topo $ file_arg $ validate_arg $ seed_arg)

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "tcpfo"
             ~doc:"Transparent TCP connection failover simulator (DSN 2003)")
          [ failover_cmd; trace_cmd; chain_cmd; fleet_cmd; topo_cmd ]))
