module Clock = Tcpfo_sim.Clock
module Seq32 = Tcpfo_util.Seq32
module Rng = Tcpfo_util.Rng
module Ipaddr = Tcpfo_packet.Ipaddr
module Seg = Tcpfo_packet.Tcp_segment
module Ip_layer = Tcpfo_ip.Ip_layer
module Obs = Tcpfo_obs.Obs
module Registry = Tcpfo_obs.Registry

(* Per-segment demultiplexing is the hottest lookup in the simulator, so
   the 4-tuple is packed into a single immediate int and hashed with a
   dedicated integer mix: no tuple allocation per lookup and no call
   into caml's structural hashing.

   A full IPv4 4-tuple is 96 bits — too wide for one OCaml int — so
   addresses are interned into per-stack 15-bit ids (first-seen order;
   a host sees far fewer than 32768 distinct peers) and the key packs
   [lid:15 | lport:16 | rid:15 | rport:16] = 62 bits, injectively. *)
module Key = struct
  type t = int

  let equal (a : int) (b : int) = a = b

  (* splitmix64-style finalizer with the multipliers truncated to odd
     62-bit constants (OCaml ints are 63-bit); [land max_int] keeps the
     result non-negative *)
  let hash k =
    let h = k lxor (k lsr 30) in
    let h = h * 0x3f58476d1ce4e5b9 in
    let h = h lxor (h lsr 27) in
    let h = h * 0x14d049bb133111eb in
    (h lxor (h lsr 31)) land max_int
end

module Ctbl = Hashtbl.Make (Key)

(* listening ports: a monomorphic [equal], so a SYN's lookup makes no
   [compare_val] call *)
module Ptbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let max_addr_id = 0x7FFF

let pack ~lid ~lport ~rid ~rport =
  (((lid lsl 16) lor lport) lsl 31) lor ((rid lsl 16) lor rport)

let unpack k =
  let lhalf = k lsr 31 and rhalf = k land 0x7FFFFFFF in
  (lhalf lsr 16, lhalf land 0xFFFF, rhalf lsr 16, rhalf land 0xFFFF)

(* A connection in TIME_WAIT is a compact record, not a TCB: the key is
   the only copy of its endpoints, and [expiry] its 2 MSL timer. *)
type entry =
  | Full of Tcb.t
  | Compact of { tw : Tcb.tw; mutable expiry : Tcpfo_sim.Engine.event_id }

type t = {
  clock : Clock.t;
  ip : Ip_layer.t;
  config : Tcp_config.t;
  rng : Rng.t;
  tcb_ins : Tcb.instruments Lazy.t;
      (* under the host scope narrowed to "tcp", resolved on the first
         connection, so a stack that never opens one registers no
         per-connection names *)
  conns : entry Ctbl.t;
  addr_ids : int Ctbl.t; (* Ipaddr.to_int -> intern id, first-seen order *)
  addrs : Ipaddr.t Tcpfo_util.Vec.t; (* intern id -> address *)
  mutable next_addr_id : int;
  listeners : (Tcb.t -> unit) Ptbl.t;
  mutable extra_local : Ipaddr.t -> bool;
  mutable next_ephemeral : int;
  rst_sent : Registry.counter;
  connections : Registry.gauge;
  demux_hits : Registry.counter;
  demux_misses : Registry.counter;
}

let config t = t.config
let tcb_instruments t = Lazy.force t.tcb_ins
let ip t = t.ip
let set_extra_local t p = t.extra_local <- p
let connection_count t = Ctbl.length t.conns

let intern t addr =
  let a = Ipaddr.to_int addr in
  match Ctbl.find t.addr_ids a with
  | id -> id
  | exception Not_found ->
    let id = t.next_addr_id in
    if id > max_addr_id then
      invalid_arg "Stack: more than 32768 distinct addresses on one stack";
    t.next_addr_id <- id + 1;
    Ctbl.add t.addr_ids a id;
    Tcpfo_util.Vec.push t.addrs addr;
    id

let key_of t ~local:(la, lp) ~remote:(ra, rp) =
  pack ~lid:(intern t la) ~lport:lp ~rid:(intern t ra) ~rport:rp

let sync_conn_gauge t =
  Registry.Gauge.set t.connections (Ctbl.length t.conns)

let local_ok t addr =
  Ip_layer.is_local_address t.ip addr || t.extra_local addr

let endpoints_of_key t key =
  let lid, lport, rid, rport = unpack key in
  let addr id = Tcpfo_util.Vec.get t.addrs id in
  ((addr lid, lport), (addr rid, rport))

let find t ~local ~remote =
  match Ctbl.find t.conns (key_of t ~local ~remote) with
  | Full tcb -> Some tcb
  | Compact _ | (exception Not_found) -> None

let mem t ~local ~remote = Ctbl.mem t.conns (key_of t ~local ~remote)

let fresh_port t =
  let p = t.next_ephemeral in
  t.next_ephemeral <- (if p >= 65535 then 49152 else p + 1);
  p

let send_rst_for t ~src ~dst (seg : Seg.t) =
  if not seg.flags.rst then begin
    Registry.Counter.incr t.rst_sent;
    let rst =
      if seg.flags.ack then
        Seg.make
          ~flags:{ Seg.no_flags with rst = true }
          ~window:0 ~src_port:seg.dst_port ~dst_port:seg.src_port
          ~seq:seg.ack ()
      else
        Seg.make
          ~flags:{ Seg.no_flags with rst = true; ack = true }
          ~ack:(Seq32.add seg.seq (Seg.seq_length seg))
          ~window:0 ~src_port:seg.dst_port ~dst_port:seg.src_port
          ~seq:Seq32.zero ()
    in
    (* src/dst swapped: we answer as the destination of the offender *)
    Ip_layer.send_tcp t.ip ~src:dst ~dst:src rst
  end

let remove t key =
  (match Ctbl.find t.conns key with
  | Compact e ->
    Tcb.Tw.close e.tw;
    t.clock.cancel e.expiry
  | Full _ | (exception Not_found) -> ());
  Ctbl.remove t.conns key;
  sync_conn_gauge t

(* 2 MSL after the last TIME_WAIT (re)start, the record leaves the
   table (cancelling the timer that fires is a no-op) *)
let arm_time_wait t key =
  t.clock.schedule (2 * t.config.msl) (fun () -> remove t key)

let actions_for t key (local, remote) =
  {
    Tcb.emit =
      (fun seg ->
        Ip_layer.send_tcp t.ip ~src:(fst local) ~dst:(fst remote) seg);
    on_delete =
      (function
      | None -> remove t key
      | Some tw ->
        let expiry = arm_time_wait t key in
        Ctbl.replace t.conns key (Compact { tw; expiry }));
  }

let fresh_iss t =
  match t.config.iss_override with
  | Some v -> Seq32.of_int v
  | None -> Seq32.of_int (Rng.bits32 t.rng)

let handle_segment t ~src ~dst (seg : Seg.t) =
  let key =
    pack ~lid:(intern t dst) ~lport:seg.dst_port ~rid:(intern t src)
      ~rport:seg.src_port
  in
  match Ctbl.find t.conns key with
  | Full tcb ->
    Registry.Counter.incr t.demux_hits;
    Tcb.segment_arrives tcb seg
  | Compact e -> (
    Registry.Counter.incr t.demux_hits;
    (* the record answers as the segment's destination *)
    let reply seg = Ip_layer.send_tcp t.ip ~src:dst ~dst:src seg in
    match Tcb.Tw.input e.tw seg with
    | Tcb.Tw.Ignore -> ()
    | Ack ack -> reply ack
    | Ack_restart ack ->
      reply ack;
      t.clock.cancel e.expiry;
      e.expiry <- arm_time_wait t key
    | Reset rst ->
      Option.iter reply rst;
      remove t key)
  | exception Not_found -> (
    Registry.Counter.incr t.demux_misses;
    match Ptbl.find_opt t.listeners seg.dst_port with
    | Some on_accept
      when seg.flags.syn && (not seg.flags.ack) && (not seg.flags.rst)
           && local_ok t dst ->
      let local = (dst, seg.dst_port) and remote = (src, seg.src_port) in
      let iss = fresh_iss t in
      (* Register before creating: Tcb emission of the SYN-ACK must find
         the connection present if anything loops back synchronously. *)
      let actions = actions_for t key (local, remote) in
      let tcb =
        Tcb.create_passive t.clock ~instruments:(tcb_instruments t)
          ~config:t.config ~local ~remote ~iss actions ~syn:seg
      in
      Ctbl.replace t.conns key (Full tcb);
      sync_conn_gauge t;
      on_accept tcb
    | Some _ | None -> send_rst_for t ~src ~dst seg)

let create clock ~ip ~config ~rng =
  let obs = Obs.scope (Ip_layer.obs ip) "tcp" in
  let t =
    {
      clock;
      ip;
      config;
      rng;
      tcb_ins = lazy (Tcb.instruments obs);
      conns = Ctbl.create 64;
      addr_ids = Ctbl.create 16;
      addrs = Tcpfo_util.Vec.create ();
      next_addr_id = 0;
      listeners = Ptbl.create 8;
      extra_local = (fun _ -> false);
      next_ephemeral = 49152;
      rst_sent = Obs.counter obs "rst_sent";
      connections = Obs.gauge obs "connections";
      demux_hits = Obs.counter obs "demux_hits";
      demux_misses = Obs.counter obs "demux_misses";
    }
  in
  Ip_layer.set_tcp_handler ip (fun ~src ~dst seg ->
      handle_segment t ~src ~dst seg);
  t

let listen t ~port ~on_accept = Ptbl.replace t.listeners port on_accept
let unlisten t ~port = Ptbl.remove t.listeners port

let connect t ?local ?local_port ~remote () =
  let local_addr =
    match local with
    | Some a ->
      if not (local_ok t a) then
        invalid_arg "Stack.connect: source address not local";
      a
    | None -> (
      match Ip_layer.addresses t.ip with
      | a :: _ -> a
      | [] -> invalid_arg "Stack.connect: host has no address")
  in
  let lport = match local_port with Some p -> p | None -> fresh_port t in
  let local = (local_addr, lport) in
  let key = key_of t ~local ~remote in
  if Ctbl.mem t.conns key then
    invalid_arg "Stack.connect: connection already exists";
  let iss = fresh_iss t in
  let actions = actions_for t key (local, remote) in
  let tcb =
    Tcb.create_active t.clock ~instruments:(tcb_instruments t)
      ~config:t.config ~local ~remote ~iss actions
  in
  Ctbl.replace t.conns key (Full tcb);
  sync_conn_gauge t;
  tcb

let adopt t ~local ~remote ~make =
  let key = key_of t ~local ~remote in
  if Ctbl.mem t.conns key then Error "Stack.adopt: connection already exists"
  else begin
    let actions = actions_for t key (local, remote) in
    let tcb = make actions in
    Ctbl.replace t.conns key (Full tcb);
    sync_conn_gauge t;
    Ok tcb
  end

type conn = Live of Tcb.t | Time_wait of Tcb.tw

type listed = {
  local : Ipaddr.t * int;
  remote : Ipaddr.t * int;
  conn : conn;
}

(* Sorted by the real 4-tuple, not the packed key: intern ids depend on
   first-contact order, and reintegration's transfer order must stay
   byte-identical to the pre-packing implementation. *)
let entries t =
  let cmp a b =
    let (la, lp), (ra, rp) = (a.local, a.remote) in
    let (la', lp'), (ra', rp') = (b.local, b.remote) in
    let c = Ipaddr.compare la la' in
    if c <> 0 then c
    else
      let c = Int.compare lp lp' in
      if c <> 0 then c
      else
        let c = Ipaddr.compare ra ra' in
        if c <> 0 then c else Int.compare rp rp'
  in
  Ctbl.fold
    (fun key e acc ->
      let l =
        match e with
        | Full tcb ->
          {
            local = Tcb.local_endpoint tcb;
            remote = Tcb.remote_endpoint tcb;
            conn = Live tcb;
          }
        | Compact { tw; _ } ->
          let local, remote = endpoints_of_key t key in
          { local; remote; conn = Time_wait tw }
      in
      l :: acc)
    t.conns []
  |> List.sort cmp

let connections t =
  List.filter_map
    (function
      | { conn = Live tcb; _ } -> Some tcb | { conn = Time_wait _; _ } -> None)
    (entries t)

let clock t = t.clock

module For_testing = struct
  let pack = pack
  let hash = Key.hash

  let unpack = unpack
end
