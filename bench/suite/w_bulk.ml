(* bulk-failover: concurrent downloads through a primary kill.

   The paper's bulk-throughput setup (§9, Figure 5): the paper's host
   profile on a 100 Mb/s LAN, one client, a replicated pair.  The client
   opens 256 connections open-loop, each downloading 256 KiB; when half
   of all bytes have arrived the primary is killed and the secondary
   takes over (§5).  Four worlds per pass give over a thousand stall
   samples.

   Why: MSS-sized frames and the primary bridge's byte-merging data
   path, the bottleneck of Figure 5.  Few connections keep the engine
   queue shallow, so an engine-structure change should show no gain
   here. *)

module Time = Tcpfo_sim.Time
module Engine = Tcpfo_sim.Engine
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Topo = Tcpfo_host.Topo
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Replicated = Tcpfo_core.Replicated
module Failover_config = Tcpfo_core.Failover_config

let port = 5002
let open_gap = Time.us 200
let chunk = 16384

type conn = {
  track : Probe.conn;
  mutable got : int;
  mutable bad : string option;
  mutable eof : bool;
}

(* Both replicas run this: stream [size] bytes of the pattern in
   [chunk]-byte writes, then close, refilling the send buffer whenever
   it drains.  A write offers at most one byte more than the buffer
   takes: the buffer accepts the same bytes and is marked full (so
   [on_drain] fires) exactly as for a whole chunk, without copying bytes
   it would refuse. *)
let serve p repl payload =
  let size = String.length payload in
  Replicated.listen repl ~port ~on_accept:(fun ~role:_ tcb ->
      let off = ref 0 in
      let rec pump () =
        if !off < size then begin
          let want =
            min (min chunk (size - !off)) (Tcb.send_space tcb + 1)
          in
          let chunk = String.sub payload !off want in
          let n = Probe.lib p (fun () -> Tcb.send tcb chunk) in
          off := !off + n;
          if n = want then pump ()
        end
        else Probe.lib p (fun () -> Tcb.close tcb)
      in
      Tcb.set_on_established tcb (Probe.cb p pump);
      Tcb.set_on_drain tcb (Probe.cb p pump))

let world p ~seed ~conns ~size =
  let w = World.create ~seed () in
  Probe.start_world p w;
  let engine = World.engine w in
  let cs =
    Array.init conns (fun _ ->
        { track = Probe.conn p; got = 0; bad = None; eof = false })
  in
  let delivered = ref 0 and last_eof = ref 0 in
  let repl, primary, secondary =
    Probe.setup p (fun () ->
        let payload = Testbed.pattern size in
        let topo =
          Probe.span p "host.topo_build_s" (fun () ->
              Testbed.pair w ~profile:Testbed.paper_profile ~clients:1 ())
        in
        let repl =
          Probe.span p "host.pool_create_s" (fun () ->
              Replicated.create_pool ~replicas:(Topo.group_of topo "pool")
                ~config:
                  (Failover_config.make ~service_ports:[ port ]
                     ~bridge_cost:(Time.us 55) ())
                ())
        in
        ignore (Probe.watch_pool p repl);
        serve p repl payload;
        Probe.capture p (Topo.segment_of topo "lan");
        let client = Topo.host_of topo "client0" in
        let service = Replicated.service_addr repl in
        Array.iteri
          (fun i c ->
            ignore
              (Engine.schedule engine ~delay:(i * open_gap) (fun () ->
                   let due = Probe.now p in
                   Probe.await c.track ~at:due;
                   let tcb =
                     Stack.connect (Host.tcp client) ~remote:(service, port) ()
                   in
                   Tcb.set_on_established tcb
                     (Probe.cb p (fun () ->
                          Probe.connected p ~due;
                          Probe.progress p c.track ~idle:false));
                   Tcb.set_on_data tcb
                     (Probe.cb p (fun d ->
                          if not (Testbed.matches payload c.got d) then
                            c.bad <- Some "stream not byte-exact";
                          c.got <- c.got + String.length d;
                          delivered := !delivered + String.length d;
                          Probe.progress p c.track ~idle:false));
                   Tcb.set_on_reset tcb
                     (Probe.cb p (fun () -> c.bad <- Some "reset"));
                   Tcb.set_on_eof tcb
                     (Probe.cb p (fun () ->
                          c.eof <- true;
                          last_eof := Probe.now p;
                          Probe.replied p ~due;
                          Probe.progress p c.track ~idle:true;
                          Probe.lib p (fun () -> Tcb.close tcb))))))
          cs;
        let primary = Topo.host_of topo "primary" in
        Probe.watch p ~backlog:[ primary ] ~conns:[ client; primary ];
        (repl, primary, Topo.host_of topo "secondary"))
  in
  let total = conns * size in
  Probe.phase p "steady" (fun () ->
      Probe.run_until p ~cap:(Time.sec 120.) (fun () -> !delivered * 2 >= total));
  Probe.snapshot_probe p (Probe.live_conns [ primary ]);
  Replicated.kill_primary repl;
  Probe.kill p;
  Probe.phase p "failover" (fun () ->
      Probe.run_until p ~cap:(Time.sec 120.) (fun () ->
          Array.for_all (fun c -> c.eof) cs));
  p.Probe.app_bytes <- p.Probe.app_bytes + !delivered;
  p.Probe.load_ns <- p.Probe.load_ns + !last_eof;
  p.Probe.attempted <- p.Probe.attempted + conns;
  Array.iter
    (fun c ->
      match c.bad with
      | Some why -> Probe.fail p why
      | None ->
        if not c.eof then Probe.fail p "download did not complete"
        else if c.got <> size then Probe.fail p "download short")
    cs;
  Probe.end_world p
    ~roles:
      [ ("primary", [ primary ]); ("secondary", [ secondary ]);
        ("dispatcher", []); ("shard_max", [ primary; secondary ]) ]

let pass p ~seed ~smoke =
  let worlds, conns, size = if smoke then (1, 8, 32768) else (4, 256, 262144) in
  for i = 0 to worlds - 1 do
    world p ~seed:((seed * 16) + i) ~conns ~size
  done
