module Time = Tcpfo_sim.Time
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Ipaddr = Tcpfo_packet.Ipaddr
module Obs = Tcpfo_obs.Obs
module Event = Tcpfo_obs.Event
module Registry = Tcpfo_obs.Registry
module Transfer = Tcpfo_statex.Transfer
module Snapshot = Tcpfo_statex.Snapshot

type hook = replica:int -> Tcb.t -> unit

type t = {
  obs : Obs.t;
  service_addr : Ipaddr.t;
  registry : Failover_config.registry;
  mutable services : (int * hook) list;
  (* §7.2 client-role connections: the setup registered for each backend
     endpoint, re-invoked when a restored snapshot of that connection
     lands on a fresh replica *)
  mutable backends : ((Ipaddr.t * int) * hook) list;
  (* bookkeeping of the latest {!start} *)
  mutable pending : int;
  mutable moved : int;
  mutable failures : int;
  latency : Registry.histogram;
  isolated : Registry.counter;
  queue_depth : Registry.gauge;
  paced_offers : Registry.counter;
  pace_wait : Registry.counter;
}

let create obs ~service_addr ~registry =
  let statex = Obs.scope (Obs.root obs) "statex" in
  {
    obs;
    service_addr;
    registry;
    services = [];
    backends = [];
    pending = 0;
    moved = 0;
    failures = 0;
    latency = Obs.histogram statex "reintegration_us";
    isolated = Obs.counter statex "isolated_conns";
    queue_depth = Obs.gauge statex "transfer_queue_depth";
    paced_offers = Obs.counter statex "paced_offers";
    pace_wait = Obs.counter statex "pace_wait_us";
  }

let pending t = t.pending
let failures t = t.failures

(* E11's window: enough offers in flight to keep the control channel
   busy, few enough that thousands of connections never land in one
   simulation instant. *)
let window = 32

(* Time_wait transfers too: the replica must keep answering retransmitted
   FINs after a second failover, or a late client FIN meets an RST. *)
let transferable_state : Tcb.state -> bool = function
  | Tcb.Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
  | Last_ack | Time_wait ->
    true
  | Syn_sent | Syn_received | Closed -> false

let find_backend t (ra, rp) =
  List.find_map
    (fun ((a, p), setup) ->
      if Ipaddr.equal a ra && p = rp then Some setup else None)
    t.backends

let installer t (host, replica) ~src:_ (sc : Snapshot.conn) =
  let snap = sc.Snapshot.tcb in
  if not (transferable_state snap.Tcb.sn_state) then
    Error "connection state not transferable"
  else if not (Ipaddr.equal (fst snap.Tcb.sn_local) t.service_addr) then
    Error "snapshot is not for the service address"
  else
    let stack = Host.tcp host in
    match
      Stack.adopt stack ~local:snap.Tcb.sn_local ~remote:snap.Tcb.sn_remote
        ~make:(fun actions ->
          Tcb.restore (Host.clock host)
            ~instruments:(Stack.tcb_instruments stack)
            ~config:(Stack.config stack) actions snap)
    with
    | Error _ as e -> e
    | Ok tcb ->
      let app =
        match sc.Snapshot.role with
        | `Server -> List.assoc_opt (snd snap.Tcb.sn_local) t.services
        | `Client -> find_backend t snap.Tcb.sn_remote
      in
      Option.iter (fun hook -> hook ~replica tcb) app;
      Tcb.resume_restored tcb;
      Ok ()

type replica = Host.t * int

let attach t ((host, _) as r) =
  let xfer = Transfer.attach host in
  Transfer.set_installer xfer (installer t r);
  xfer

(* retention makes the connection transferable: a later reintegration
   replays the retained input on the new replica to rebuild the
   application layer *)
let listen_on (host, replica) ~port (hook : hook) =
  Stack.listen (Host.tcp host) ~port ~on_accept:(fun tcb ->
      Tcb.enable_input_retention tcb;
      hook ~replica tcb)

let listen t ~port hook replicas =
  Failover_config.register_endpoint t.registry ~local_port:port;
  t.services <- (port, hook) :: t.services;
  List.iter (fun r -> listen_on r ~port hook) replicas

let connect_backend t ~remote ?local_port (hook : hook) replicas =
  (match local_port with
  | Some p -> Failover_config.register_endpoint t.registry ~local_port:p
  | None ->
    Failover_config.register_remote t.registry ~remote_port:(snd remote));
  t.backends <- (remote, hook) :: t.backends;
  (* retention makes the client-role connection transferable, exactly as
     [listen] does for server-role connections *)
  List.iter
    (fun (host, replica) ->
      let tcb =
        Stack.connect (Host.tcp host) ~local:t.service_addr ?local_port ~remote
          ()
      in
      Tcb.enable_input_retention tcb;
      hook ~replica tcb)
    replicas

let start_services t r =
  List.iter (fun (port, hook) -> listen_on r ~port hook) t.services

(* A candidate is a full TCB or, in TIME_WAIT, the stack's compact
   record of one: both snapshot to the same image. *)
let state (c : Stack.listed) =
  match c.conn with
  | Live tcb -> Tcb.state tcb
  | Time_wait tw -> Tcb.Tw.state tw

let retains_input (c : Stack.listed) =
  match c.conn with
  | Live tcb -> Tcb.input_retention_enabled tcb
  | Time_wait tw -> Tcb.Tw.input_retention_enabled tw

let snapshot (c : Stack.listed) =
  match c.conn with
  | Live tcb -> Tcb.snapshot tcb
  | Time_wait tw -> Tcb.Tw.snapshot tw ~local:c.local ~remote:c.remote

let frontier (c : Stack.listed) =
  match c.conn with
  | Live tcb -> Tcb.frontier tcb
  | Time_wait tw -> Tcb.Tw.frontier tw

(* The transfer unit for [c] with its TCB image [snap].  Δ shifts
   fixed-width fields only, so the image encodes to the same length for
   any [delta] and [solo]. *)
let image t (c : Stack.listed) snap ~delta ~solo =
  {
    Snapshot.tcb = snap;
    role = (if Option.is_some (find_backend t c.remote) then `Client else `Server);
    delta;
    next_wire_seq = snap.Tcb.sn_snd_max;
    held_segments = 0;
    solo;
  }

let start t ~survivor ~bridge:pb ~xfer ~dst ~live ~on_isolated ~on_complete =
  let clock = Host.clock survivor in
  let t0 = clock.now () in
  let candidates =
    (* both directions qualify: listener-side connections match on the
       local service port, §7.2 client-role connections (registered via
       [register_remote]) on the remote port *)
    List.filter
      (fun (c : Stack.listed) ->
        let la, lp = c.local in
        let _, rp = c.remote in
        Ipaddr.equal la t.service_addr
        && Failover_config.is_failover_conn t.registry ~local_port:lp
             ~remote_port:rp)
      (Stack.entries (Host.tcp survivor))
  in
  let to_transfer, to_isolate =
    List.partition
      (fun c -> transferable_state (state c) && retains_input c)
      candidates
  in
  let isolated = ref 0 in
  let isolate c ~local_port ~remote =
    incr isolated;
    Registry.Counter.incr t.isolated;
    on_isolated ~local_port ~remote ~state:(state c)
  in
  let demote_solo (c : Stack.listed) =
    let _, lp = c.local in
    let remote = c.remote in
    Primary_bridge.isolate_conn pb ~remote ~local_port:lp;
    isolate c ~local_port:lp ~remote
  in
  List.iter demote_solo to_isolate;
  t.pending <- List.length to_transfer;
  t.moved <- 0;
  let publish phase =
    if Obs.tracing t.obs then
      Obs.emit t.obs ~at:(clock.now ())
        (Event.Hot_transfer { host = Host.name survivor; dst; phase })
  in
  publish (Started { offers = t.pending; isolated = !isolated });
  let finish () =
    Registry.Histogram.observe_us t.latency (clock.now () - t0);
    publish (Settled { moved = t.moved; isolated = !isolated });
    on_complete t.moved
  in
  if t.pending = 0 then finish ()
  else begin
    let queue = Queue.create () in
    List.iter (fun c -> Queue.add c queue) to_transfer;
    Registry.Gauge.set t.queue_depth (Queue.length queue);
    let inflight = ref 0 in
    let pace_armed = ref false in
    let rec offer_one (c : Stack.listed) =
      let _, lp = c.local in
      let remote = c.remote in
      (* Quiesce FIRST: [begin_transfer] holds the connection's merge
         state before Δ and the TCB image are read, so the capture is
         atomic at the offer instant — a client byte landing between
         the Δ read and the snapshot would otherwise be counted in
         both. *)
      Primary_bridge.begin_transfer pb ~remote ~local_port:lp;
      let delta_opt = Primary_bridge.conn_delta pb ~remote ~local_port:lp in
      let delta = Option.value delta_opt ~default:0 in
      let snap = snapshot c in
      let snap = if delta <> 0 then Tcb.shift_snapshot snap (-delta) else snap in
      let sc = image t c snap ~delta ~solo:(delta_opt <> None) in
      let wait = clock.now () - t0 in
      if wait > 0 then begin
        Registry.Counter.incr t.paced_offers;
        Registry.Counter.add t.pace_wait (wait / 1000)
      end;
      incr inflight;
      Transfer.offer xfer ~dst sc ~on_result:(fun res ->
          decr inflight;
          (match res with
          | Ok () when live () ->
            t.moved <- t.moved + 1;
            Primary_bridge.complete_transfer pb ~remote ~local_port:lp
              ~frontier:(frontier c) ~snapshot:snap ~delta
          | Ok () | Error _ ->
            if Result.is_error res then t.failures <- t.failures + 1;
            Primary_bridge.abort_transfer pb ~remote ~local_port:lp;
            isolate c ~local_port:lp ~remote);
          t.pending <- t.pending - 1;
          if t.pending = 0 then finish ()
          else if not !pace_armed then pump ())
    and pump () =
      if not (live ()) then begin
        (* a failure arrived mid-pacing: nothing more can ship on this
           run — pin the queued remainder solo *)
        while not (Queue.is_empty queue) do
          demote_solo (Queue.pop queue);
          t.pending <- t.pending - 1
        done;
        Registry.Gauge.set t.queue_depth 0;
        if t.pending = 0 then finish ()
      end
      else if !inflight < window && not (Queue.is_empty queue) then begin
        (* one tick fills one datagram: after the first, offer queued
           connections while each one's first installment still joins
           the datagram being filled *)
        let joins c =
          Transfer.fits xfer ~dst (image t c (snapshot c) ~delta:0 ~solo:false)
        in
        Transfer.batch xfer (fun () ->
            offer_one (Queue.pop queue);
            while
              !inflight < window
              && (not (Queue.is_empty queue))
              && joins (Queue.peek queue)
            do
              offer_one (Queue.pop queue)
            done);
        Registry.Gauge.set t.queue_depth (Queue.length queue);
        if not (Queue.is_empty queue) then begin
          pace_armed := true;
          ignore
            (clock.schedule (Transfer.suggested_pace xfer) (fun () ->
                 pace_armed := false;
                 pump ()))
        end
      end
    in
    pump ()
  end
