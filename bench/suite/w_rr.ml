(* rr-10k: ten thousand long-lived request/reply connections, no faults.

   E13's topology: a replicated pair, 8 clients, server-class hosts, a
   1 Gb/s LAN.  Opens arrive open-loop at a rate the primary absorbs;
   then an open-loop Poisson request ladder offers fixed rates, stopping
   after the first step that fails.  Each request is 16 B and so is its
   reply; both ends re-arm an idle watchdog on every receipt, the
   far-future, almost-always-cancelled timer population that fills the
   engine queue.

   Why: the smallest packets and the largest population of live
   connections and timers.  It loads the engine queue, TCP demux, the
   bridges' per-segment cost and the obs histograms, and bypasses
   statex, the dispatcher and failover. *)

module Time = Tcpfo_sim.Time
module Engine = Tcpfo_sim.Engine
module Cpu = Tcpfo_sim.Cpu
module Rng = Tcpfo_util.Rng
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Topo = Tcpfo_host.Topo
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Replicated = Tcpfo_core.Replicated
module Failover_config = Tcpfo_core.Failover_config

let ports = [| 7000; 7001; 7002; 7003; 7004; 7005; 7006; 7007 |]
let n_clients = 8
let msg = 16
let open_gap = Time.us 150

(* a close costs the primary about three times what an open does *)
let close_gap = Time.us 450
let watchdog_delay = Time.sec 5.
let slice = Time.ms 2

(* Calibrated once: the primary's CPU saturates between 4000 and 5000
   requests/s, so capacity falls strictly inside the ladder. *)
let ladder = [| 2000; 3000; 3500; 4000; 5000 |]
let limit_ms = 5.

(* A primary backlog past this fails the step at once and stops its
   load.  Heartbeats queue behind the backlog too: keeping it well under
   the failure detector's 30 ms timeout means an overloaded step never
   looks like a dead primary. *)
let abort_backlog_ms = 15.

type request = { due : Time.t; id : int; step : int; slot : int }

type conn = {
  track : Probe.conn;
  mutable tcb : Tcb.t option;
  outstanding : request Queue.t;
  mutable partial : string;
  watchdog : Engine.event_id option ref;
  mutable bad : string option;
  mutable eof : bool;
}

let request_text id = Printf.sprintf "q%015d" id
let reply_text id = Printf.sprintf "r%015d" id

let rearm engine slot =
  Option.iter (Engine.cancel engine) !slot;
  slot := Some (Engine.schedule engine ~delay:watchdog_delay ignore)

(* Both replicas: answer every whole 16 B request with its reply. *)
let serve p engine repl =
  Array.iter
    (fun port ->
      Replicated.listen repl ~port ~on_accept:(fun ~role:_ tcb ->
          let partial = ref "" and watchdog = ref None in
          Tcb.set_on_data tcb
            (Probe.cb p (fun d ->
                 rearm engine watchdog;
                 let s = !partial ^ d in
                 let n = String.length s / msg in
                 for k = 0 to n - 1 do
                   let reply = "r" ^ String.sub s ((k * msg) + 1) (msg - 1) in
                   ignore (Probe.lib p (fun () -> Tcb.send tcb reply))
                 done;
                 partial := String.sub s (n * msg) (String.length s - (n * msg))));
          Tcb.set_on_eof tcb
            (Probe.cb p (fun () ->
                 Option.iter (Engine.cancel engine) !watchdog;
                 Probe.lib p (fun () -> Tcb.close tcb)))))
    ports

let world p ~seed ~conns ~steps ~step_len =
  let w = World.create ~seed () in
  Probe.start_world p w;
  let engine = World.engine w in
  (* the first step, where request latency is reported, runs eight
     times longer so its p99 rests on enough samples to repeat across
     seeds *)
  let len step = if step = 0 then 8 * step_len else step_len in
  let rng = Rng.create ~seed:(seed lxor 0x5eed) in
  let conn_of = Array.init conns Fun.id in
  for i = conns - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = conn_of.(i) in
    conn_of.(i) <- conn_of.(j);
    conn_of.(j) <- t
  done;
  let cs =
    Array.init conns (fun _ ->
        { track = Probe.conn p; tcb = None; outstanding = Queue.create ();
          partial = ""; watchdog = ref None; bad = None; eof = false })
  in
  (* per step, latency by arrival slot, with room for twice the expected
     Poisson count *)
  let lat =
    Array.mapi
      (fun i r -> Array.make (2 * r * len i / 1_000_000_000) infinity)
      ladder
  in
  let issued = Array.make (Array.length ladder) 0 in
  let step_latencies step =
    Array.to_list (Array.sub lat.(step) 0 issued.(step))
  in
  let sent = ref 0 and replied = ref 0 in
  let on_reply c d =
    rearm engine c.watchdog;
    p.Probe.app_bytes <- p.Probe.app_bytes + String.length d;
    let s = c.partial ^ d in
    let n = String.length s / msg in
    for k = 0 to n - 1 do
      match Queue.take_opt c.outstanding with
      | None -> c.bad <- Some "reply without a request"
      | Some r ->
        if String.sub s (k * msg) msg <> reply_text r.id then
          c.bad <- Some "reply not byte-exact";
        lat.(r.step).(r.slot) <- Probe.ms_of_ns (Probe.now p - r.due);
        incr replied;
        Probe.progress p c.track ~idle:(Queue.is_empty c.outstanding)
    done;
    c.partial <- String.sub s (n * msg) (String.length s - (n * msg))
  in
  let open_conn clients service i c () =
    let due = Probe.now p in
    Probe.await c.track ~at:due;
    let tcb =
      Stack.connect
        (Host.tcp clients.(i mod n_clients))
        ~remote:(service, ports.(i mod Array.length ports))
        ()
    in
    c.tcb <- Some tcb;
    Tcb.set_on_established tcb
      (Probe.cb p (fun () ->
           Probe.connected p ~due;
           Probe.progress p c.track ~idle:true));
    Tcb.set_on_data tcb (Probe.cb p (on_reply c));
    Tcb.set_on_reset tcb (Probe.cb p (fun () -> c.bad <- Some "reset"));
    Tcb.set_on_eof tcb (Probe.cb p (fun () -> c.eof <- true))
  in
  let primary, secondary =
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
                  (Failover_config.make ~service_ports:(Array.to_list ports)
                     ~bridge_cost:(Time.us 55) ())
                ())
        in
        ignore (Probe.watch_pool p repl);
        serve p engine repl;
        Probe.capture p (Topo.segment_of topo "lan");
        let clients =
          Array.init n_clients (fun i ->
              Topo.host_of topo (Printf.sprintf "client%d" i))
        in
        let service = Replicated.service_addr repl in
        Array.iteri
          (fun i c ->
            ignore
              (Engine.schedule engine ~delay:(i * open_gap)
                 (open_conn clients service i c)))
          cs;
        let primary = Topo.host_of topo "primary" in
        Probe.watch p ~backlog:[ primary ]
          ~conns:(Array.to_list clients @ Replicated.replicas repl);
        (primary, Topo.host_of topo "secondary"))
  in
  let established () =
    Array.for_all
      (fun c ->
        match c.tcb with Some t -> Tcb.state t <> Tcb.Syn_sent | None -> false)
      cs
  in
  Probe.phase p "open" (fun () ->
      Probe.run_until p ~slice ~cap:(Time.sec 30.) established);
  let next = ref 0 in
  let send_request step slot =
    let c = cs.(conn_of.(!next mod conns)) in
    let id = !next in
    incr next;
    let due = Probe.now p in
    issued.(step) <- slot + 1;
    Queue.push { due; id; step; slot } c.outstanding;
    Probe.await c.track ~at:due;
    incr sent;
    match c.tcb with
    | Some t when Tcb.send t (request_text id) = msg -> ()
    | _ -> c.bad <- Some "request not accepted"
  in
  (* One ladder step: Poisson arrivals (independent users, so queueing
     shows before the primary saturates), then a drain of at most one
     latency limit.  It fails on a p99 past the limit, on outstanding
     requests growing by more than one limit's worth across its second
     half, or on the backlog abort. *)
  let run_step step =
    let rate = ladder.(step) in
    let start = Probe.now p in
    let stop = ref false in
    let mean_gap = 1e9 /. float_of_int rate in
    let rec fire slot =
      if not !stop then begin
        send_request step slot;
        let gap = int_of_float (Rng.exponential rng ~mean:mean_gap) in
        if
          slot + 1 < Array.length lat.(step)
          && Probe.now p + gap < start + len step
        then
          ignore (Engine.schedule engine ~delay:gap (fun () -> fire (slot + 1)))
      end
    in
    ignore (Engine.schedule_at engine ~at:start (fun () -> fire 0));
    let aborted = ref false and mid_out = ref (-1) in
    Probe.run_until p ~slice ~cap:(len step)
      ~each:(fun () ->
        let now = Probe.now p in
        if !mid_out < 0 && now >= start + (len step / 2) then
          mid_out := !sent - !replied;
        if Probe.ms_of_ns (Cpu.busy_until (Host.cpu primary) - now)
           > abort_backlog_ms
        then begin
          aborted := true;
          stop := true
        end)
      (fun () -> !aborted);
    stop := true;
    let end_out = !sent - !replied in
    Probe.run_until p ~slice
      ~cap:(Time.ms (int_of_float limit_ms))
      (fun () -> !replied = !sent);
    let p99 = Testbed.percentile 99. (step_latencies step) in
    let grew =
      end_out - !mid_out > int_of_float (float_of_int rate *. limit_ms /. 1e3)
    in
    not (!aborted || grew || p99 > limit_ms)
  in
  Probe.phase p "steady" (fun () ->
      let rec ladder_from step =
        if step < steps && run_step step then begin
          p.Probe.capacity <- float_of_int ladder.(step);
          ladder_from (step + 1)
        end
      in
      ladder_from 0;
      Probe.run_until p ~slice ~cap:(Time.sec 5.) (fun () -> !replied = !sent);
      Probe.snapshot_probe p (Probe.live_conns [ primary ]);
      Array.iteri
        (fun i c ->
          ignore
            (Engine.schedule engine ~delay:(i * close_gap) (fun () ->
                 Option.iter (Engine.cancel engine) !(c.watchdog);
                 Option.iter Tcb.close c.tcb)))
        cs;
      Probe.run_until p ~slice ~cap:(Time.sec 30.) (fun () ->
          Array.for_all (fun c -> c.eof) cs));
  p.Probe.request <- step_latencies 0 @ p.Probe.request;
  p.Probe.load_ns <- p.Probe.load_ns + Probe.now p;
  p.Probe.attempted <- p.Probe.attempted + conns;
  Array.iter
    (fun c ->
      match c.bad with
      | Some why -> Probe.fail p why
      | None ->
        if not c.eof then Probe.fail p "connection did not complete"
        else if not (Queue.is_empty c.outstanding && c.partial = "") then
          Probe.fail p "replies missing")
    cs;
  Probe.end_world p
    ~roles:
      [ ("primary", [ primary ]); ("secondary", [ secondary ]);
        ("dispatcher", []); ("shard_max", [ primary; secondary ]) ]

let pass p ~seed ~smoke =
  if smoke then world p ~seed ~conns:200 ~steps:1 ~step_len:(Time.ms 100)
  else
    world p ~seed ~conns:10_000 ~steps:(Array.length ladder)
      ~step_len:(Time.sec 2.)
