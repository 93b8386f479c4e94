(* fleet-churn: short connections through a dispatcher while shards die
   and are repaired.

   E15 scaled up: one fleet address NATed onto 16 two-replica pools,
   8 clients on the front segment, server-class hosts on 1 Gb/s
   segments.  8,192 short connections arrive open-loop, one every
   500 us; each sends a request and reads a 2 KiB reply.  Sixteen
   rotating kill/repair cycles (primaries and secondaries alternating)
   start 250 ms apart, each closing only once the pool is whole again
   and the dispatcher has ramped the shard back to full weight.

   Why: connection setup and teardown, the dispatcher's NAT, probes and
   weight shifts, and many small hot-state transfers, with few
   connections live at once. *)

module Time = Tcpfo_sim.Time
module Engine = Tcpfo_sim.Engine
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Topo = Tcpfo_host.Topo
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Replicated = Tcpfo_core.Replicated
module Failover_config = Tcpfo_core.Failover_config
module Dispatch = Tcpfo_dispatch.Dispatch
module Ipaddr = Tcpfo_packet.Ipaddr

let n_clients = 8
let port = 7
let request = "get\n"
let reply_size = 2048
let open_gap = Time.us 500
let cycle_gap = Time.ms 250
let gateway = "10.0.0.254"

let serve p pools reply =
  List.iter
    (fun (_, pool) ->
      Replicated.listen pool ~port ~on_accept:(fun ~role:_ tcb ->
          let got = ref 0 in
          Tcb.set_on_data tcb
            (Probe.cb p (fun d ->
                 got := !got + String.length d;
                 if !got >= String.length request then begin
                   got := !got - String.length request;
                   ignore (Probe.lib p (fun () -> Tcb.send tcb reply));
                   Probe.lib p (fun () -> Tcb.close tcb)
                 end))))
    pools

type conn = {
  track : Probe.conn;
  buf : Buffer.t;
  mutable bad : string option;
  mutable eof : bool;
}

let world p ~seed ~n_pools ~conns ~cycles =
  let w = World.create ~seed () in
  Probe.start_world p w;
  let engine = World.engine w in
  let shard i = Printf.sprintf "shard%d" i in
  let reply = Testbed.pattern reply_size in
  let cs = Array.init conns (fun _ -> None) in
  let last_eof = ref 0 in
  let topo, back, disp, pools, watched =
    Probe.setup p (fun () ->
        let topo =
          Probe.span p "host.topo_build_s" (fun () ->
              Topo.build w
                ([ Topo.segment ~config:Testbed.gigabit "front";
                   Topo.segment ~config:Testbed.gigabit "back" ]
                @ List.init n_clients (fun i ->
                      Topo.host ~profile:Testbed.server_class
                        ~addr:(Printf.sprintf "10.1.0.%d" (10 + i))
                        ~seg:"front" (Printf.sprintf "client%d" i))
                @ List.concat
                    (List.init n_pools (fun i ->
                         List.map
                           (fun (k, suffix) ->
                             Topo.host ~profile:Testbed.server_class ~gateway
                               ~addr:
                                 (Printf.sprintf "10.0.0.%d" (k + (2 * i)))
                               ~seg:"back" (Printf.sprintf "s%d%s" i suffix))
                           [ (1, "a"); (2, "b") ]))
                @ List.init n_pools (fun i ->
                      Topo.group
                        ~members:
                          [ Printf.sprintf "s%da" i; Printf.sprintf "s%db" i ]
                        (shard i))
                @ [ Topo.service ~seg:"front" ~addr:"10.1.0.1" "fleet";
                    Topo.dispatch ~service:"fleet" ~back:gateway
                      ~shards:(List.init n_pools shard) "disp" ]))
        in
        let disp, pools =
          Probe.span p "host.pool_create_s" (fun () ->
              Dispatch.of_topo topo ~name:"disp"
                ~config:(Failover_config.make ~service_ports:[ port ] ())
                ())
        in
        let watched =
          List.map (fun (name, r) -> (name, Probe.watch_pool p r)) pools
        in
        serve p pools reply;
        Probe.capture p (Topo.segment_of topo "front");
        let clients =
          Array.init n_clients (fun i ->
              Topo.host_of topo (Printf.sprintf "client%d" i))
        in
        let service = Dispatch.service disp in
        for i = 0 to conns - 1 do
          ignore
            (Engine.schedule engine ~delay:(i * open_gap) (fun () ->
                 let due = Probe.now p in
                 let c =
                   { track = Probe.conn p; buf = Buffer.create reply_size; bad = None;
                     eof = false }
                 in
                 cs.(i) <- Some c;
                 Probe.await c.track ~at:due;
                 let tcb =
                   Stack.connect
                     (Host.tcp clients.(i mod n_clients))
                     ~remote:(service, port) ()
                 in
                 Tcb.set_on_established tcb
                   (Probe.cb p (fun () ->
                        Probe.connected p ~due;
                        Probe.progress p c.track ~idle:false;
                        ignore (Probe.lib p (fun () -> Tcb.send tcb request))));
                 Tcb.set_on_data tcb
                   (Probe.cb p (fun d ->
                        Buffer.add_string c.buf d;
                        Probe.progress p c.track ~idle:false));
                 Tcb.set_on_reset tcb
                   (Probe.cb p (fun () -> c.bad <- Some "reset"));
                 Tcb.set_on_eof tcb
                   (Probe.cb p (fun () ->
                        c.eof <- true;
                        last_eof := Probe.now p;
                        Probe.replied p ~due;
                        Probe.progress p c.track ~idle:true;
                        if Buffer.contents c.buf <> reply then
                          c.bad <- Some "reply not byte-exact";
                        Probe.lib p (fun () -> Tcb.close tcb)))))
        done;
        let servers = List.concat_map (fun (_, r) -> Replicated.replicas r) pools in
        Probe.watch p
          ~backlog:(List.map (fun (_, r) -> List.hd (Replicated.replicas r)) pools)
          ~conns:(Array.to_list clients @ servers);
        (topo, Topo.segment_of topo "back", disp, pools, watched))
  in
  let initial = List.map (fun (_, r) -> Replicated.replicas r) pools in
  let max_w = Dispatch.default_config.Dispatch.max_weight in
  (* the kill/repair cycles, a polled state machine between 1 ms slices *)
  let cycle = ref 0 and stage = ref `Idle and repaired = ref [] in
  let advance () =
    if !cycle < cycles then begin
      let name = shard (!cycle mod n_pools) in
      let pool = List.assoc name watched in
      let repl = pool.Probe.repl in
      match !stage with
      | `Idle ->
        if Probe.now p >= Time.ms 30 + (!cycle * cycle_gap) then begin
          if !cycle mod 2 = 0 then Replicated.kill_primary repl
          else Replicated.kill_secondary repl;
          Probe.kill p;
          stage := `Detect
        end
      | `Detect ->
        if Replicated.status repl <> `Normal then begin
          let h =
            World.add_host w back ~name:(Printf.sprintf "fix%d" !cycle)
              ~addr:(Printf.sprintf "10.0.0.%d" (100 + !cycle))
              ~profile:Testbed.server_class ()
          in
          Host.set_default_via_lan h ~gateway:(Ipaddr.of_string gateway);
          World.warm_arp (h :: Replicated.replicas repl);
          Topo.warm_dispatch_arp topo "disp" [ h ];
          Dispatch.arm_probe_responder h;
          repaired := h :: !repaired;
          stage := `Repair h
        end
      | `Repair h -> if Probe.reintegrate p pool h then stage := `Settle
      | `Settle ->
        if
          Replicated.status repl = `Normal
          && Replicated.pending_transfers repl = 0
          && Dispatch.weight disp name = max_w
          && Dispatch.state disp name = Dispatch.Healthy
        then begin
          incr cycle;
          stage := `Idle
        end
    end
  in
  let finished () =
    !cycle >= cycles
    && Array.for_all
         (function Some c -> c.eof || c.bad <> None | None -> false)
         cs
  in
  Probe.phase p "steady" (fun () ->
      Probe.run_until p ~slice:(Time.ms 1) ~each:advance ~cap:(Time.sec 60.)
        finished);
  Array.iter
    (Option.iter (fun c ->
         p.Probe.app_bytes <- p.Probe.app_bytes + Buffer.length c.buf))
    cs;
  p.Probe.load_ns <- p.Probe.load_ns + !last_eof;
  p.Probe.attempted <- p.Probe.attempted + conns;
  Array.iter
    (function
      | None -> Probe.fail p "connection never opened"
      | Some c -> (
        match c.bad with
        | Some why -> Probe.fail p why
        | None ->
          if not c.eof then Probe.fail p "connection did not complete"))
    cs;
  if !cycle < cycles then Probe.fail p "kill/repair cycles did not finish";
  let d = Dispatch.counters disp in
  (* a refused SYN fails its connection even if a retry later succeeds *)
  for _ = 1 to d.refused do
    Probe.fail p "SYN refused by the dispatcher"
  done;
  if d.isolation_drops > 0 then Probe.fail p "a shard replied into another's flow";
  List.iter
    (fun (name, v) -> Probe.add p ("dispatch." ^ name) (float_of_int v))
    [ ("routed", d.routed); ("drained", d.drained); ("refused", d.refused);
      ("probes_sent", d.probes_sent);
      ("shift_transitions", d.shift_transitions);
      ("isolation_drops", d.isolation_drops) ];
  let firsts = List.map List.hd initial
  and seconds = List.map (fun l -> List.nth l 1) initial in
  Probe.end_world p
    ~roles:
      [ ("primary", firsts); ("secondary", seconds);
        ("dispatcher", [ (Topo.dispatch_of topo "disp").Topo.di_host ]);
        ("shard_max", firsts @ seconds @ !repaired) ]

let pass p ~seed ~smoke =
  if smoke then world p ~seed ~n_pools:4 ~conns:256 ~cycles:2
  else world p ~seed ~n_pools:16 ~conns:8192 ~cycles:16
