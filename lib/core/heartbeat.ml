module Host = Tcpfo_host.Host
module Ip_layer = Tcpfo_ip.Ip_layer
module Ipaddr = Tcpfo_packet.Ipaddr
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Obs = Tcpfo_obs.Obs
module Event = Tcpfo_obs.Event
module Registry = Tcpfo_obs.Registry

let proto = 253

type beat = { origin : string; seq : int; role : [ `Primary | `Secondary ] }

(* u32 seq, u16 origin length, u8 role, u8 zero, origin: 8 + |origin|
   bytes. *)
let encode { origin; seq; role } =
  let n = String.length origin in
  let b = Bytes.create (8 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int seq);
  Bytes.set_uint16_be b 4 n;
  Bytes.set_uint8 b 6 (match role with `Primary -> 0 | `Secondary -> 1);
  Bytes.set_uint8 b 7 0;
  Bytes.blit_string origin 0 b 8 n;
  Bytes.unsafe_to_string b

let decode s =
  let len = String.length s in
  if len < 8 || String.get_uint16_be s 4 <> len - 8 || String.get_uint8 s 7 <> 0
  then None
  else
    let beat role =
      Some
        { origin = String.sub s 8 (len - 8);
          seq = Int32.to_int (String.get_int32_be s 0) land 0xFFFF_FFFF;
          role }
    in
    match String.get_uint8 s 6 with
    | 0 -> beat `Primary
    | 1 -> beat `Secondary
    | _ -> None

type t = {
  host : Host.t;
  peer : Tcpfo_packet.Ipaddr.t;
  role : [ `Primary | `Secondary ];
  config : Failover_config.t;
  on_peer_failure : unit -> unit;
  obs : Obs.t;
  sent : Registry.counter;
  received : Registry.counter;
  mutable running : bool;
  mutable seq : int;
  started_at : Tcpfo_sim.Time.t;
  mutable last_seen : Tcpfo_sim.Time.t;
  mutable seen_any : bool;
  mutable fired : bool;
}

(* A host's one proto-253 registration dispatches every beat to the
   watchers of the peer it came from.  Only the watched peer's own beats
   reset a detector: a heartbeat must come from the peer's address and
   carry the peer's (opposite) role.  Anything looser lets a third
   replica pair on the same segment keep a dead peer looking alive. *)
let watchers_key : (int, t list) Hashtbl.t Host.key = Host.new_key ()

let on_beat set ~src (beat : beat) =
  match Hashtbl.find_opt set (Ipaddr.to_int src) with
  | None -> ()
  | Some ws ->
    List.iter
      (fun t ->
        if beat.role <> t.role then begin
          Registry.Counter.incr t.received;
          t.seen_any <- true;
          t.last_seen <- (Host.clock t.host).now ()
        end)
      ws

let watchers host =
  Host.local host watchers_key ~init:(fun () ->
      let set = Hashtbl.create 4 in
      Ip_layer.register (Host.ip host) ~proto ~name:"heartbeat" ~decode
        (on_beat set);
      set)

let stop t =
  t.running <- false;
  let set = watchers t.host and key = Ipaddr.to_int t.peer in
  match Hashtbl.find_opt set key with
  | None -> ()
  | Some ws -> (
    match List.filter (fun w -> w != t) ws with
    | [] -> Hashtbl.remove set key
    | rest -> Hashtbl.replace set key rest)

let rec send_loop t =
  if t.running && Host.alive t.host then begin
    t.seq <- t.seq + 1;
    Registry.Counter.incr t.sent;
    Ip_layer.send (Host.ip t.host)
      (Ipv4_packet.make ~src:(Host.addr t.host) ~dst:t.peer
         (Raw
            { proto;
              data = encode { origin = Host.name t.host; seq = t.seq;
                              role = t.role } }));
    ignore
      ((Host.clock t.host).schedule t.config.heartbeat_period (fun () ->
           send_loop t))
  end

(* Deadline-driven detector: each wake-up recomputes the silence deadline
   from the freshest heartbeat and sleeps exactly until it.  (A
   fixed-period poll could let almost a full extra timeout elapse between
   the deadline passing and the next poll noticing, giving a worst-case
   detection latency near 2x timeout + period; this way it is bounded by
   timeout + 2 x period.)

   The deadline anchors one period past the last arrival — the peer is
   declared dead when the beat expected at [last_seen + period] is
   [detector_timeout] overdue.  Measuring the timeout from the last
   arrival itself would leave zero jitter margin: with
   [timeout = k * period] it would fire on exactly [k] lost beats even
   when the [k+1]'th is merely delayed by queueing noise. *)
let rec check_loop t =
  if t.running && Host.alive t.host then begin
    let now = (Host.clock t.host).now () in
    let base =
      if t.seen_any then t.last_seen
      else t.started_at (* nothing ever received: count from start *)
    in
    let deadline =
      base + t.config.heartbeat_period + t.config.detector_timeout
    in
    if now >= deadline then begin
      if not t.fired then begin
        t.fired <- true;
        stop t;
        if Obs.tracing t.obs then
          Obs.emit t.obs ~at:now
            (Event.Failover { host = Host.name t.host; phase = Detected });
        t.on_peer_failure ()
      end
    end
    else
      ignore
        ((Host.clock t.host).schedule (deadline - now) (fun () ->
             check_loop t))
  end

let start host ~peer ~role ~config ~on_peer_failure =
  let obs = Host.obs host in
  let hb_obs = Obs.scope obs "heartbeat" in
  let t =
    {
      host;
      peer;
      role;
      config;
      on_peer_failure;
      obs;
      sent = Obs.counter hb_obs "sent";
      received = Obs.counter hb_obs "received";
      running = true;
      seq = 0;
      started_at = (Host.clock host).now ();
      last_seen = 0;
      seen_any = false;
      fired = false;
    }
  in
  let set = watchers host and key = Ipaddr.to_int peer in
  Hashtbl.replace set key
    (t :: Option.value ~default:[] (Hashtbl.find_opt set key));
  send_loop t;
  (* initial grace: the first check coincides with the earliest possible
     deadline, as if a beat had just been heard *)
  ignore
    ((Host.clock host).schedule
       (config.heartbeat_period + config.detector_timeout)
       (fun () -> check_loop t));
  t
