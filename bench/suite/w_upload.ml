(* upload-reintegrate: paced uploads through a secondary kill, a
   reintegration and a primary kill.

   E11's topology (4 clients, 4 service ports, server-class hosts, a
   1 Gb/s LAN).  Four worlds of 500 connections each, two thousand per
   pass, upload a 4 KiB block every 250 ms, and the service answers
   every block with a receipt.  Three in four connections checkpoint at
   block boundaries, so they ship delta snapshots; the rest never
   checkpoint and ship full ones.  Opens, and so blocks, are spread
   evenly over one pace period, so every kill lands in a steady block
   stream.  The secondary is killed (§6), a fresh host is reintegrated
   with the default transfer settings once the failure is detected, and
   after the transfers settle the original primary is killed too: every
   receipt stream must stay byte-exact on the repaired host.

   A world holds 500 connections because under this load the default
   burst offer scheduler collapses at about 900 live connections
   (transfers time out and connections are isolated), and a workload
   must complete without failures.

   Why: client input is what the pool retains and ships, so this is the
   statex and retention workload.  It exercises both snapshot forms and
   the default offer scheduler. *)

module Time = Tcpfo_sim.Time
module Engine = Tcpfo_sim.Engine
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Topo = Tcpfo_host.Topo
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Replicated = Tcpfo_core.Replicated
module Failover_config = Tcpfo_core.Failover_config

let ports = [| 7000; 7001; 7002; 7003 |]
let n_clients = 4
let block_size = 4096
let receipt_size = 18

(* Block [k] of connection [i]: a 16-byte head naming both, so receipts
   are checkable and the service can tell checkpointing connections
   (i mod 4 <> 3) from the rest without per-connection state. *)
let head i k =
  Printf.sprintf "%c%09d:%05d" (if i mod 4 = 3 then 'f' else 'd') i k

let block i k = head i k ^ String.make (block_size - 16) '.'
let receipt i k = "R:" ^ head i k

let serve p repl =
  Array.iter
    (fun port ->
      Replicated.listen repl ~port ~on_accept:(fun ~role:_ tcb ->
          let pending = Buffer.create block_size in
          Tcb.set_on_data tcb
            (Probe.cb p (fun d ->
                 Buffer.add_string pending d;
                 while Buffer.length pending >= block_size do
                   let b = Buffer.sub pending 0 block_size in
                   let rest =
                     Buffer.sub pending block_size
                       (Buffer.length pending - block_size)
                   in
                   Buffer.clear pending;
                   Buffer.add_string pending rest;
                   let receipt = "R:" ^ String.sub b 0 16 in
                   ignore (Probe.lib p (fun () -> Tcb.send tcb receipt));
                   if b.[0] = 'd' && Buffer.length pending = 0 then
                     Probe.lib p (fun () -> Tcb.checkpoint tcb)
                 done));
          Tcb.set_on_eof tcb
            (Probe.cb p (fun () -> Probe.lib p (fun () -> Tcb.close tcb)))))
    ports

type conn = {
  track : Probe.conn;
  mutable tcb : Tcb.t option;
  mutable sent : int;
  mutable got : string;
  dues : Time.t Queue.t;
  mutable bad : string option;
  mutable eof : bool;
}

let world p ~seed ~conns ~blocks ~pace =
  let w = World.create ~seed () in
  Probe.start_world p w;
  let engine = World.engine w in
  let cs =
    Array.init conns (fun _ ->
        { track = Probe.conn p; tcb = None; sent = 0; got = "";
          dues = Queue.create (); bad = None; eof = false })
  in
  let receipts = ref 0 and last_eof = ref 0 in
  let by_endpoint = Hashtbl.create conns in
  let rec send_block i c =
    match c.tcb with
    | Some tcb when c.sent < blocks ->
      let due = Probe.now p in
      Queue.push due c.dues;
      Probe.await c.track ~at:due;
      let b = block i c.sent in
      if Probe.lib p (fun () -> Tcb.send tcb b) <> block_size then
        c.bad <- Some "block not accepted";
      c.sent <- c.sent + 1;
      ignore (Engine.schedule engine ~delay:pace (fun () -> send_block i c))
    | _ -> ()
  in
  let on_receipt i c d =
    c.got <- c.got ^ d;
    while String.length c.got >= receipt_size do
      let k = c.sent - Queue.length c.dues in
      (match Queue.take_opt c.dues with
      | Some due when String.sub c.got 0 receipt_size = receipt i k ->
        Probe.replied p ~due;
        incr receipts;
        Probe.progress p c.track ~idle:(Queue.is_empty c.dues)
      | _ -> c.bad <- Some "receipt not byte-exact");
      c.got <-
        String.sub c.got receipt_size (String.length c.got - receipt_size)
    done;
    if c.sent = blocks && Queue.is_empty c.dues then
      Option.iter (fun t -> Probe.lib p (fun () -> Tcb.close t)) c.tcb
  in
  let repl, pool, lan, hosts, primary, secondary =
    Probe.setup p (fun () ->
        let topo =
          Probe.span p "host.topo_build_s" (fun () ->
              Testbed.pair w ~lan:Testbed.gigabit ~profile:Testbed.server_class
                ~clients:n_clients ())
        in
        let repl =
          Probe.span p "host.pool_create_s" (fun () ->
              Replicated.create_pool ~replicas:(Topo.group_of topo "pool")
                ~config:
                  (Failover_config.make ~service_ports:(Array.to_list ports) ())
                ())
        in
        let pool = Probe.watch_pool p repl in
        (* a connection left solo would not survive the second kill:
           count it failed even if the client never notices *)
        Replicated.add_on_event repl (function
          | Replicated.Isolated { remote; _ } -> (
            match Hashtbl.find_opt by_endpoint remote with
            | Some c -> c.bad <- Some "isolated at reintegration"
            | None -> ())
          | _ -> ());
        serve p repl;
        let lan = Topo.segment_of topo "lan" in
        Probe.capture p lan;
        let clients =
          Array.init n_clients (fun i ->
              Topo.host_of topo (Printf.sprintf "client%d" i))
        in
        let service = Replicated.service_addr repl in
        Array.iteri
          (fun i c ->
            ignore
              (Engine.schedule engine ~delay:(i * pace / conns) (fun () ->
                   let due = Probe.now p in
                   Probe.await c.track ~at:due;
                   let tcb =
                     Stack.connect (Host.tcp clients.(i mod n_clients))
                       ~remote:(service, ports.(i mod Array.length ports)) ()
                   in
                   c.tcb <- Some tcb;
                   Hashtbl.replace by_endpoint (Tcb.local_endpoint tcb) c;
                   Tcb.set_on_established tcb
                     (Probe.cb p (fun () ->
                          Probe.connected p ~due;
                          Probe.progress p c.track ~idle:true;
                          send_block i c));
                   Tcb.set_on_data tcb (Probe.cb p (on_receipt i c));
                   Tcb.set_on_reset tcb
                     (Probe.cb p (fun () -> c.bad <- Some "reset"));
                   Tcb.set_on_eof tcb
                     (Probe.cb p (fun () ->
                          c.eof <- true;
                          last_eof := Probe.now p)))))
          cs;
        let primary = Topo.host_of topo "primary"
        and secondary = Topo.host_of topo "secondary" in
        Probe.watch p ~backlog:[ primary ]
          ~conns:(Array.to_list clients @ [ primary; secondary ]);
        (repl, pool, lan, Topo.hosts topo, primary, secondary))
  in
  let all_done () = Array.for_all (fun c -> c.eof) cs in
  let until_time t () = Probe.now p >= t in
  Probe.phase p "steady" (fun () ->
      Probe.run_until p ~cap:(Time.sec 60.) (until_time (5 * pace / 2)));
  Replicated.kill_secondary repl;
  Probe.kill p;
  Probe.phase p "failover" (fun () ->
      Probe.run_until p ~cap:(Time.sec 10.) (fun () ->
          Replicated.status repl <> `Normal));
  let repaired =
    Probe.phase p "reintegrate" (fun () ->
        let h =
          World.add_host w lan ~name:"repaired" ~addr:"10.0.0.3"
            ~profile:Testbed.server_class ()
        in
        (* warm_arp skips the dead secondary *)
        World.warm_arp (h :: hosts);
        Probe.run_until p ~cap:(Time.sec 10.) (fun () ->
            Probe.reintegrate p pool h);
        Probe.run_until p ~cap:(Time.sec 30.) (fun () ->
            Replicated.pending_transfers repl = 0 && p.Probe.reint <> []);
        h)
  in
  Probe.phase p "steady" (fun () ->
      Probe.run_until p ~cap:(Time.sec 60.) (until_time (9 * pace / 2)));
  Replicated.kill_primary repl;
  Probe.kill p;
  Probe.phase p "failover" (fun () ->
      Probe.run_until p ~cap:(Time.sec 60.) all_done);
  p.Probe.app_bytes <- p.Probe.app_bytes + (!receipts * block_size);
  p.Probe.load_ns <- p.Probe.load_ns + !last_eof;
  p.Probe.attempted <- p.Probe.attempted + conns;
  Array.iter
    (fun c ->
      match c.bad with
      | Some why -> Probe.fail p why
      | None ->
        if not c.eof then Probe.fail p "upload did not complete"
        else if c.sent <> blocks || not (Queue.is_empty c.dues) then
          Probe.fail p "receipts missing")
    cs;
  Probe.end_world p
    ~roles:
      [ ("primary", [ primary ]); ("secondary", [ secondary; repaired ]);
        ("dispatcher", []); ("shard_max", [ primary; secondary; repaired ]) ]

let pass p ~seed ~smoke =
  let worlds, conns = if smoke then (1, 32) else (4, 500) in
  for i = 0 to worlds - 1 do
    world p ~seed:((seed * 16) + i) ~conns ~blocks:7 ~pace:(Time.ms 250)
  done
