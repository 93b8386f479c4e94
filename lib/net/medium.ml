module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module Rng = Tcpfo_util.Rng
module Vec = Tcpfo_util.Vec
module Eth_frame = Tcpfo_packet.Eth_frame
module Macaddr = Tcpfo_packet.Macaddr
module Ipaddr = Tcpfo_packet.Ipaddr
module Obs = Tcpfo_obs.Obs
module Registry = Tcpfo_obs.Registry

type config = {
  bandwidth_bps : int;
  propagation : Time.t;
  loss_prob : float;
  enable_collisions : bool;
  collision_prob : float;
}

let default_config =
  { bandwidth_bps = 100_000_000; propagation = Time.us 1; loss_prob = 0.0;
    enable_collisions = true; collision_prob = 0.3 }

type port = {
  id : int; (* attach order *)
  mac : int; (* -1 for a tap, which takes every frame *)
  deliver : Eth_frame.t -> addressed_to_me:bool -> unit;
  mutable attached : bool;
  mutable promiscuous : bool;
  mutable host : int; (* the [host a] filter's address; -1: none *)
  mutable addrs : int list; (* own addresses, aliases included *)
  mutable partitioned : bool;
  backlog : Eth_frame.t Queue.t;
  mutable attempts : int; (* collisions suffered by the head frame *)
  mutable deferring : bool; (* queued waiting for the medium to go idle *)
}

(* A table from MACs or IPv4 addresses (plain non-negative ints) to
   ports: open addressing with linear probing, so a lookup is a multiply
   and a probe or two, with no call through a hash function.  A key whose
   list empties keeps its slot until the table next grows; a segment's
   keys are its stations' MACs and addresses, a bounded set. *)
module Itbl = struct
  type 'a t = {
    mutable keys : int array; (* -1: free *)
    mutable vals : 'a list array;
    mutable used : int; (* slots holding a key *)
  }

  let create () =
    { keys = Array.make 16 (-1); vals = Array.make 16 []; used = 0 }

  let hash k = (k * 0x2545F4914F6CDD1D) lsr 24

  (* the slot holding [k], or the free slot where it would go *)
  let rec slot keys k i =
    let i = i land (Array.length keys - 1) in
    let x = Array.unsafe_get keys i in
    if x = k || x < 0 then i else slot keys k (i + 1)

  let find t k =
    let i = slot t.keys k (hash k) in
    if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i else []

  let rec replace t k v =
    let i = slot t.keys k (hash k) in
    if t.keys.(i) = k then t.vals.(i) <- v
    else if 2 * (t.used + 1) > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (2 * Array.length keys) (-1);
      t.vals <- Array.make (2 * Array.length keys) [];
      t.used <- 0;
      Array.iteri
        (fun j k -> match vals.(j) with [] -> () | l -> replace t k l)
        keys;
      replace t k v
    end
    else begin
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.used <- t.used + 1
    end
end

(* The station table: who takes which frame.  Every list is in attach
   (id) order and holds attached ports only; partition is checked at
   delivery. *)
type table = {
  ports : port Vec.t; (* every port, for broadcasts *)
  mutable taps : port list;
  by_mac : port Itbl.t; (* stations, by their MAC *)
  mutable promisc : port list; (* every promiscuous station: ARP *)
  mutable wild : port list; (* promiscuous, no [host] filter: all IPv4 *)
  by_host : port Itbl.t; (* [host a] stations, by a: src or dst *)
  by_own : port Itbl.t; (* [host a] stations, by own address: dst *)
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  config : config;
  table : table;
  mutable next_id : int;
  mutable jammed : bool; (* a collision's jam signal is on the wire *)
  (* The frame on the wire ends at [busy_until] with the event whose seq
     is reserved in [busy_seq]; that event is scheduled ([end_armed])
     only once there is work for it. *)
  mutable busy_until : Time.t;
  mutable busy_seq : int;
  mutable sender : port;
  mutable end_armed : bool;
  waiters : port Queue.t; (* deferring stations, FIFO; filtered lazily *)
  mutable fault_hook : (Eth_frame.t -> Fault_hook.verdict) option;
  collisions : Registry.counter;
  frames : Registry.counter;
  bytes : Registry.counter;
  fault_dropped : Registry.counter;
  corrupted : Registry.counter;
}

let make_port ~id ~mac deliver =
  { id; mac; deliver; attached = true; promiscuous = false;
    host = -1; addrs = []; partitioned = false; backlog = Queue.create ();
    attempts = 0; deferring = false }

let nobody = make_port ~id:(-1) ~mac:(-1) (fun _ ~addressed_to_me:_ -> ())

let create engine ~rng ?obs config =
  let obs =
    Obs.scope (match obs with Some o -> o | None -> Obs.silent ()) "medium"
  in
  { engine; rng; config;
    table =
      { ports = Vec.create (); taps = []; by_mac = Itbl.create ();
        promisc = []; wild = []; by_host = Itbl.create ();
        by_own = Itbl.create () };
    next_id = 0; jammed = false;
    busy_until = -1; busy_seq = 0; sender = nobody; end_armed = false;
    waiters = Queue.create (); fault_hook = None;
    collisions = Obs.counter obs "collisions";
    frames = Obs.counter obs "frames"; bytes = Obs.counter obs "bytes";
    fault_dropped = Obs.counter obs "fault_dropped";
    corrupted = Obs.counter obs "corrupted" }

let set_fault_hook t h = t.fault_hook <- h

(* ------------------------- station table -------------------------- *)

let rec insert p = function
  | [] -> [ p ]
  | q :: rest as l ->
    if p.id < q.id then p :: l
    else if p.id = q.id then l
    else q :: insert p rest

let rec remove p = function
  | [] -> []
  | q :: rest -> if q.id = p.id then rest else q :: remove p rest

let tbl_add tbl k p = Itbl.replace tbl k (insert p (Itbl.find tbl k))
let tbl_remove tbl k p = Itbl.replace tbl k (remove p (Itbl.find tbl k))

(* Enter [p]'s promiscuous filter in the table, or take it out: which
   entries it holds follows from [promiscuous], [host] and [addrs]. *)
let filter_entries tb p ~add =
  if p.promiscuous then begin
    let list l = if add then insert p l else remove p l in
    let tbl = if add then tbl_add else tbl_remove in
    tb.promisc <- list tb.promisc;
    if p.host < 0 then tb.wild <- list tb.wild
    else begin
      tbl tb.by_host p.host p;
      List.iter (fun a -> tbl tb.by_own a p) p.addrs
    end
  end

let attach_port t ~mac deliver =
  let p = make_port ~id:t.next_id ~mac deliver in
  t.next_id <- t.next_id + 1;
  let tb = t.table in
  Vec.push tb.ports p;
  if mac >= 0 then tbl_add tb.by_mac mac p else tb.taps <- insert p tb.taps;
  p

let attach t ~deliver =
  attach_port t ~mac:(-1) (fun f ~addressed_to_me:_ -> deliver f)

let attach_station t ~mac ~deliver =
  attach_port t ~mac:(Macaddr.to_int mac) deliver

let detach t p =
  if p.attached then begin
    let tb = t.table in
    filter_entries tb p ~add:false;
    if p.mac >= 0 then tbl_remove tb.by_mac p.mac p
    else tb.taps <- remove p tb.taps;
    ignore (Vec.remove_first (fun q -> q.id = p.id) tb.ports)
  end;
  p.attached <- false;
  Queue.clear p.backlog
(* a detached port still queued in [waiters] is skipped at the next
   idle transition *)

let set_promiscuous t p ?host on =
  if p.attached then filter_entries t.table p ~add:false;
  p.promiscuous <- on;
  p.host <- (match host with Some a when on -> Ipaddr.to_int a | _ -> -1);
  if p.attached then filter_entries t.table p ~add:true

let add_address t p a =
  let a = Ipaddr.to_int a in
  if not (List.exists (Int.equal a) p.addrs) then begin
    p.addrs <- a :: p.addrs;
    if p.attached && p.promiscuous && p.host >= 0 then
      tbl_add t.table.by_own a p
  end

let set_partitioned p v = p.partitioned <- v

let id_of = function [] -> max_int | q :: _ -> q.id
let drop id = function q :: rest when q.id = id -> rest | l -> l
let head id l other = match l with q :: _ when q.id = id -> q | _ -> other

(* Merge the candidate lists, each in attach order, and hand [frame] to
   each port once, lowest id first.  Walking the lists allocates and
   writes nothing. *)
let rec hand_over sender frame dst l1 l2 l3 l4 l5 l6 =
  let id =
    Int.min
      (Int.min (Int.min (id_of l1) (id_of l2)) (Int.min (id_of l3) (id_of l4)))
      (Int.min (id_of l5) (id_of l6))
  in
  if id < max_int then begin
    let q =
      head id l1
        (head id l2 (head id l3 (head id l4 (head id l5 (head id l6 nobody)))))
    in
    if q.id <> sender.id && q.attached && not q.partitioned then
      q.deliver frame ~addressed_to_me:(q.mac = dst);
    hand_over sender frame dst (drop id l1) (drop id l2) (drop id l3)
      (drop id l4) (drop id l5) (drop id l6)
  end

(* Hand [frame], sent from [sender], to the ports that take it, in attach
   order.  A broadcast goes to every port.  Any other frame goes to the
   taps, the holders of its destination MAC and the promiscuous stations
   whose filter passes it: every ARP frame, and an IPv4 datagram from or
   to the [host] address, or to one of the station's own. *)
let fan_out t sender (frame : Eth_frame.t) =
  let tb = t.table in
  if Macaddr.is_broadcast frame.dst then
    Vec.iter
      (fun q ->
        if q.attached && q.id <> sender.id && not q.partitioned then
          q.deliver frame ~addressed_to_me:true)
      tb.ports
  else begin
    let dst = Macaddr.to_int frame.dst in
    let macs = Itbl.find tb.by_mac dst in
    match frame.payload with
    | Eth_frame.Arp _ ->
      hand_over sender frame dst tb.taps macs tb.promisc [] [] []
    | Eth_frame.Ip p ->
      let src = Ipaddr.to_int p.src and pdst = Ipaddr.to_int p.dst in
      hand_over sender frame dst tb.taps macs tb.wild
        (Itbl.find tb.by_host src) (Itbl.find tb.by_host pdst)
        (Itbl.find tb.by_own pdst)
  end

(* Serialization time of a [len]-byte frame includes 8 bytes preamble +
   12 bytes inter-frame gap. *)
let serialization_time t ~len =
  let bits = (len + 20) * 8 in
  bits * 1_000_000_000 / t.config.bandwidth_bps

let slot_time = Time.ns 5_120 (* 512 bit times at 100 Mb/s *)
let max_attempts = 16

(* The wire is busy during a jam and while a frame is on it.  The frame
   ends with the event reserved at [busy_seq] for [busy_until]: at that
   instant, the events before it in the firing order still see the
   frame, as they would if the event were queued. *)
let frame_on t =
  let now = Engine.now t.engine in
  now < t.busy_until
  || (now = t.busy_until && Engine.firing_seq t.engine < t.busy_seq)

let busy t = t.jammed || frame_on t

let rec start_single t p =
  match Queue.peek_opt p.backlog with
  | None -> ()
  | Some frame ->
    ignore (Queue.pop p.backlog);
    p.attempts <- 0;
    let len = Eth_frame.wire_length frame in
    let ser = serialization_time t ~len in
    Registry.Counter.incr t.frames;
    Registry.Counter.add t.bytes len;
    let lost =
      t.config.loss_prob > 0.0 && Rng.bool t.rng t.config.loss_prob
    in
    (* The fault hook rules on every frame after the configured random
       loss has drawn from the rng (so the rng stream is identical with
       and without a pass-through hook).  Dropped and corrupted frames
       still occupy the wire for their serialization time; only delivery
       is suppressed. *)
    let lost =
      match t.fault_hook with
      | None -> lost
      | Some hook -> (
        match hook frame with
        | Fault_hook.Pass -> lost
        | Fault_hook.Drop ->
          Registry.Counter.incr t.fault_dropped;
          true
        | Fault_hook.Corrupt ->
          Registry.Counter.incr t.corrupted;
          true)
    in
    (* Delivery completes one serialization + propagation later, as one
       engine event that hands the frame to the ports that take it.  A
       frame already decided lost schedules no (no-op) delivery. *)
    if not lost then
      ignore
        (Engine.schedule t.engine ~delay:(ser + t.config.propagation)
           (fun () -> fan_out t p frame));
    (* The end of the frame has work only when a station waits for the
       wire or the sender has more to send.  Its seq is taken now, so
       that when it is needed it fires exactly where it would have. *)
    t.busy_until <- Engine.now t.engine + ser;
    t.busy_seq <- Engine.reserve t.engine;
    t.sender <- p;
    t.end_armed <- false;
    if not (Queue.is_empty p.backlog && Queue.is_empty t.waiters) then
      arm_end t

and arm_end t =
  if not t.end_armed then begin
    t.end_armed <- true;
    let p = t.sender in
    ignore
      (Engine.schedule_reserved t.engine ~seq:t.busy_seq ~at:t.busy_until
         (fun () ->
           if p.attached && not (Queue.is_empty p.backlog) then defer t p;
           on_idle t))
  end

and on_idle t =
  (* Drain every waiter (FIFO); stations that detached or drained their
     backlog while queued are dropped here. *)
  let ready_rev = ref [] in
  while not (Queue.is_empty t.waiters) do
    let p = Queue.pop t.waiters in
    if p.attached && not (Queue.is_empty p.backlog) then
      ready_rev := p :: !ready_rev
  done;
  let ready = List.rev !ready_rev in
  List.iter (fun p -> p.deferring <- false) ready;
  match ready with
  | [] -> ()
  | [ p ] -> start_single t p
  | contenders when not t.config.enable_collisions ->
    (* deterministic FIFO service *)
    (match contenders with
    | first :: rest ->
      List.iter (fun p -> defer t p) rest;
      start_single t first
    | [] -> ())
  | contenders
    when t.config.collision_prob < 1.0
         && not (Rng.bool t.rng t.config.collision_prob) ->
    (* Contention resolved by carrier sense: the first waiter starts, the
       rest keep deferring. *)
    (match contenders with
    | first :: rest ->
      List.iter (fun p -> defer t p) rest;
      start_single t first
    | [] -> ())
  | contenders ->
    (* Collision: jam, then each contender backs off and retries. *)
    Registry.Counter.incr t.collisions;
    t.jammed <- true;
    ignore
      (Engine.schedule t.engine ~delay:slot_time (fun () ->
           t.jammed <- false;
           on_idle t));
    List.iter
      (fun p ->
        p.attempts <- p.attempts + 1;
        if p.attempts > max_attempts then begin
          ignore (Queue.pop p.backlog);
          p.attempts <- 0;
          if not (Queue.is_empty p.backlog) then retry_later t p 0
        end
        else begin
          let k = Int.min p.attempts 10 in
          let slots = Rng.int t.rng (1 lsl k) in
          retry_later t p slots
        end)
      contenders

and retry_later t p slots =
  ignore
    (Engine.schedule t.engine
       ~delay:(slot_time + (slots * slot_time))
       (fun () -> try_send t p))

and defer t p =
  if not p.deferring then begin
    p.deferring <- true;
    Queue.push p t.waiters;
    if frame_on t then arm_end t
  end

and try_send t p =
  if p.attached && not (Queue.is_empty p.backlog) then
    if busy t then defer t p else start_single t p

let transmit t p frame =
  if p.attached then begin
    Queue.push frame p.backlog;
    if not p.deferring then try_send t p
  end
