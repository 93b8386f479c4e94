(* Streaming control channel + transfer manager.

   Transfers ride an in-sim control channel: raw IP protocol 254
   datagrams between the surviving host and the repaired replica.  Each
   host's IP layer hands them to this module's one registration for
   254 (heartbeats own 253, dispatcher probes 252).  A sealed snapshot
   no longer crosses the wire as one monolithic envelope: the sender
   slices it into MSS-bounded installments and streams them under a
   sliding window, so no transfer datagram ever exceeds what the data
   path itself would carry:

     sender  --- Chunk {xfer_id, seq, total, data}  --->  receiver
     sender  <-- Ack {xfer_id, next}                ---   (cumulative)
     ...
     sender  <-- Accept {xfer_id} | Reject {xfer_id, reason} --

   The verdict is the final acknowledgement: the installment that
   completes a transfer is answered by Accept/Reject alone, and the
   sender takes its RTT sample from it.

   Every datagram is sealed in the versioned envelope, so a corrupted
   installment is indistinguishable from a lost one and the
   retransmission machinery covers both.  The messages an endpoint
   emits while handling one datagram or one timer (or inside one
   {!batch}) leave together: each datagram holds as many of them as fit
   in [max_datagram_bytes], a lone message in exactly its own envelope,
   two or more as a bundle.  Every promiscuous host on the segment pays
   a receive for each datagram (DESIGN 7.1), so the count matters more
   than the bytes.  The receiver assembles chunks incrementally and
   acknowledges the lowest seq it still needs; the sender retransmits
   only that gap on an RTO taken from [lib/tcp]'s estimator
   ({!Tcpfo_tcp.Rto}), backing off exponentially and giving up only
   after a bounded number of silent timeouts — so a lossy LAN delays a
   transfer instead of stranding the connection solo, while a genuinely
   dead peer still degrades cleanly.  Because the receiver's reassembly
   state survives the gaps, an interrupted transfer resumes where it
   stopped rather than restarting. *)

module Time = Tcpfo_sim.Time
module Engine = Tcpfo_sim.Engine
module Ipaddr = Tcpfo_packet.Ipaddr
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Ip_layer = Tcpfo_ip.Ip_layer
module Host = Tcpfo_host.Host
module Rto = Tcpfo_tcp.Rto
module Obs = Tcpfo_obs.Obs
module Registry = Tcpfo_obs.Registry

let proto = 254

(* The chunk bound mirrors the data path's MSS: a transfer datagram must
   never be bigger than a full-sized TCP segment's payload would be
   ({!Tcpfo_tcp.Tcp_config.default}.mss). *)
let max_datagram_bytes = 1460

(* A Chunk message's fields around its data: 1 kind + 4 xfer_id + 4 seq
   + 4 total + 4 data length. *)
let chunk_header = 17

(* The sealed envelope around every datagram's body: magic, version,
   body length, FNV-1a-64 digest. *)
let envelope = 18

(* Fixed cost of a chunk travelling alone. *)
let chunk_overhead = envelope + chunk_header

(* Data bytes per installment. *)
let chunk_data = max_datagram_bytes - chunk_overhead

(* Unacknowledged installments in flight per offer. *)
let window = 8

(* Consecutive silent RTOs before an offer gives up. *)
let max_attempts = 12

(* Conservative cap on advertised chunk counts, so a corrupted-but-
   validly-sealed header cannot make the receiver allocate gigabytes. *)
let max_total_chunks = 1 lsl 20

type msg =
  | Chunk of { xfer_id : int; seq : int; total : int; data : string }
  | Ack of { xfer_id : int; next : int }
  | Accept of { xfer_id : int }
  | Reject of { xfer_id : int; reason : string }

(* A bundle's body opens with this kind byte and a u16 message count;
   the messages follow back to back, each self-delimiting. *)
let bundle_kind = 4

(* Sealed envelope + bundle kind + u16 count. *)
let bundle_overhead = envelope + 3

(* Encoded bytes of a message body (kind byte included). *)
let msg_bytes = function
  | Chunk { data; _ } -> chunk_header + String.length data
  | Ack _ -> 9
  | Accept _ -> 5
  | Reject { reason; _ } -> 9 + String.length reason

(* Every message is at least an Accept's 5 bytes, so no bundle that
   fits the datagram bound can claim more; like [max_total_chunks], the
   bound keeps a corrupted-but-validly-sealed count from driving the
   decoder. *)
let max_bundle_msgs = (max_datagram_bytes - bundle_overhead) / 5

let write_msg b = function
  | Chunk { xfer_id; seq; total; data } ->
    Codec.W.u8 b 0;
    Codec.W.u32 b xfer_id;
    Codec.W.u32 b seq;
    Codec.W.u32 b total;
    Codec.W.str b data
  | Ack { xfer_id; next } ->
    Codec.W.u8 b 1;
    Codec.W.u32 b xfer_id;
    Codec.W.u32 b next
  | Accept { xfer_id } ->
    Codec.W.u8 b 2;
    Codec.W.u32 b xfer_id
  | Reject { xfer_id; reason } ->
    Codec.W.u8 b 3;
    Codec.W.u32 b xfer_id;
    Codec.W.str b reason

let encode msgs =
  let b = Codec.W.create () in
  (match msgs with
  | [] -> invalid_arg "Transfer.encode: no message"
  | [ m ] -> write_msg b m
  | ms ->
    Codec.W.u8 b bundle_kind;
    Codec.W.u16 b (List.length ms);
    List.iter (write_msg b) ms);
  Codec.seal (Codec.W.contents b)

let read_msg r =
  let kind = Codec.R.u8 r in
  let xfer_id = Codec.R.u32 r in
  match kind with
  | 0 ->
    let seq = Codec.R.u32 r in
    let total = Codec.R.u32 r in
    let data = Codec.R.str r in
    Chunk { xfer_id; seq; total; data }
  | 1 -> Ack { xfer_id; next = Codec.R.u32 r }
  | 2 -> Accept { xfer_id }
  | 3 -> Reject { xfer_id; reason = Codec.R.str r }
  | k -> raise (Codec.Corrupt (Printf.sprintf "unknown message kind %d" k))

let decode s =
  match Codec.unseal s with
  | Error _ -> None
  | Ok body -> (
    try
      let r = Codec.R.of_string body in
      let msgs =
        if body <> "" && Char.code body.[0] = bundle_kind then begin
          ignore (Codec.R.u8 r);
          let n = Codec.R.u16 r in
          if n < 2 || n > max_bundle_msgs then
            raise (Codec.Corrupt "bundle message count out of range");
          List.init n (fun _ -> read_msg r)
        end
        else [ read_msg r ]
      in
      if Codec.R.at_end r then Some msgs else None
    with Codec.Corrupt _ -> None)

(* --- sender-side state --------------------------------------------- *)

type outgoing = {
  o_dst : Ipaddr.t;
  o_payload : string;  (* the sealed snapshot image *)
  o_total : int;
  o_rto : Rto.t;
  mutable o_next_needed : int;  (* receiver's cumulative frontier *)
  mutable o_sent_hi : int;  (* first seq never transmitted *)
  mutable o_attempts : int;  (* consecutive silent timeouts *)
  mutable o_timer : Engine.event_id option;
  mutable o_probe : (int * Time.t) option;
      (* one un-retransmitted chunk being timed for the RTT estimator;
         cleared on any retransmission at or below it (Karn's rule) *)
  mutable o_done : bool;
  o_on_result : (unit, string) result -> unit;
}

(* --- receiver-side state ------------------------------------------- *)

type incoming =
  | Assembling of {
      a_total : int;
      a_slots : string option array;
      mutable a_next : int;  (* lowest seq still missing *)
    }
  | Verdict of (unit, string) result
      (* transfer finished: chunks dropped, verdict kept so a
         retransmitted installment re-elicits the (possibly lost)
         Accept/Reject instead of reinstalling the connection *)

type t = {
  host : Host.t;
  rto_ins : Rto.instruments Lazy.t;
      (* [statex.{rto_backoffs,rtt_us}], resolved on the first offer *)
  mutable installer :
    (src:Ipaddr.t -> Snapshot.conn -> (unit, string) result) option;
  pending : (int, outgoing) Hashtbl.t;
  incoming : (int * int, incoming) Hashtbl.t;  (* (src, xfer_id) *)
  mutable next_id : int;
  mutable last_rtt : Time.t option;
      (* most recent clean RTT sample across all offers on this channel;
         feeds the reintegration scheduler's auto-pacing *)
  (* world-absolute [statex.*] scope: both ends of a transfer share the
     registry, so these aggregate across hosts like the bridge metrics *)
  offers_sent : Registry.counter;
  offers_received : Registry.counter;
  accepts : Registry.counter;
  rejects : Registry.counter;
  timeouts : Registry.counter;
  transfer_bytes : Registry.counter;
  chunks_sent : Registry.counter;
  chunks_received : Registry.counter;
  chunk_retransmits : Registry.counter;
  duplicate_chunks : Registry.counter;
  datagrams_sent : Registry.counter;
  mutable batch_depth : int;
  mutable outboxes : outbox list;  (* newest destination first *)
}

(* Messages for one destination awaiting the end of the batch, already
   packed: [ob_cur] is the datagram being filled, [ob_full] the ones
   before it.  Both lists are newest first. *)
and outbox = {
  ob_dst : Ipaddr.t;
  mutable ob_full : msg list list;
  mutable ob_cur : msg list;
  mutable ob_cur_bytes : int;  (* sum of [msg_bytes] over [ob_cur] *)
}

(* Whether a message of [len] body bytes joins the datagram being
   filled; an empty one takes any message. *)
let joins ob len =
  ob.ob_cur = [] || bundle_overhead + ob.ob_cur_bytes + len <= max_datagram_bytes

let find_outbox t dst =
  List.find_opt (fun ob -> Ipaddr.equal ob.ob_dst dst) t.outboxes

let outbox t dst =
  match find_outbox t dst with
  | Some ob -> ob
  | None ->
    let ob = { ob_dst = dst; ob_full = []; ob_cur = []; ob_cur_bytes = 0 } in
    t.outboxes <- ob :: t.outboxes;
    ob

(* Greedy fill: a message that does not join the datagram being filled
   closes it and opens the next.  Only a batch sends what is queued
   here, so every path that emits runs inside one. *)
let send_msg t ~dst m =
  assert (t.batch_depth > 0);
  let ob = outbox t dst in
  let len = msg_bytes m in
  if not (joins ob len) then begin
    ob.ob_full <- ob.ob_cur :: ob.ob_full;
    ob.ob_cur <- [];
    ob.ob_cur_bytes <- 0
  end;
  ob.ob_cur <- m :: ob.ob_cur;
  ob.ob_cur_bytes <- ob.ob_cur_bytes + len

let flush t =
  let obs = List.rev t.outboxes in
  t.outboxes <- [];
  List.iter
    (fun ob ->
      List.iter
        (fun msgs ->
          let data = encode (List.rev msgs) in
          assert (String.length data <= max_datagram_bytes);
          Registry.Counter.incr t.datagrams_sent;
          Ip_layer.send (Host.ip t.host)
            (Ipv4_packet.make ~src:(Host.addr t.host) ~dst:ob.ob_dst
               (Ipv4_packet.Raw { proto; data })))
        (List.rev (ob.ob_cur :: ob.ob_full)))
    obs

(* The outermost batch sends what its run queued even when [f] raises,
   so no message waits for, and leaves with, a later batch. *)
let batch t f =
  t.batch_depth <- t.batch_depth + 1;
  Fun.protect f ~finally:(fun () ->
      t.batch_depth <- t.batch_depth - 1;
      if t.batch_depth = 0 then flush t)

(* --- sender -------------------------------------------------------- *)

let chunk_of o seq =
  let lo = seq * chunk_data in
  let len = min chunk_data (String.length o.o_payload - lo) in
  String.sub o.o_payload lo len

let send_chunk t o xfer_id seq =
  Registry.Counter.incr t.chunks_sent;
  send_msg t ~dst:o.o_dst
    (Chunk { xfer_id; seq; total = o.o_total; data = chunk_of o seq })

(* Ship never-sent chunks up to a full window beyond the receiver's
   frontier; the first of them becomes the RTT probe if none is
   outstanding. *)
let rec refill t xfer_id o =
  let hi = min o.o_total (o.o_next_needed + window) in
  let lo = max o.o_next_needed o.o_sent_hi in
  if lo < hi then begin
    if o.o_probe = None then
      o.o_probe <- Some (lo, (Host.clock t.host).now ());
    for seq = lo to hi - 1 do
      send_chunk t o xfer_id seq
    done;
    o.o_sent_hi <- hi
  end;
  arm_timer t xfer_id o

(* RTO-driven resend of the gap the receiver last acknowledged up to —
   only the missing installments go out again, never the whole image.
   The receiver answers the final installment with its verdict alone,
   so the frontier never reaches [o_total]: a lost verdict is re-elicited
   the same way, the resent installments meeting the receiver's kept
   verdict. *)
and retransmit_gap t xfer_id o =
  o.o_probe <- None;  (* Karn: retransmitted flights never feed the RTT *)
  for seq = o.o_next_needed to o.o_sent_hi - 1 do
    Registry.Counter.incr t.chunk_retransmits;
    send_chunk t o xfer_id seq
  done;
  arm_timer t xfer_id o

and arm_timer t xfer_id o =
  let clock = Host.clock t.host in
  (match o.o_timer with Some id -> clock.cancel id | None -> ());
  o.o_timer <-
    Some
      (clock.schedule (Rto.current o.o_rto) (fun () ->
           batch t (fun () -> on_timeout t xfer_id o)))

and on_timeout t xfer_id o =
  if not o.o_done then begin
    o.o_attempts <- o.o_attempts + 1;
    if o.o_attempts > max_attempts then begin
      o.o_done <- true;
      o.o_timer <- None;
      Hashtbl.remove t.pending xfer_id;
      Registry.Counter.incr t.timeouts;
      o.o_on_result (Error "transfer retry budget exhausted")
    end
    else begin
      Rto.backoff o.o_rto;
      retransmit_gap t xfer_id o
    end
  end

(* An RTT sample from the reply to the probe chunk, unless a
   retransmission cleared the probe (Karn's rule). *)
let sample_rtt t o =
  match o.o_probe with
  | Some (_, t0) ->
    let rtt = (Host.clock t.host).now () - t0 in
    Rto.sample o.o_rto rtt;
    t.last_rtt <- Some rtt;
    o.o_probe <- None
  | None -> ()

let finish t xfer_id o result =
  if not o.o_done then begin
    o.o_done <- true;
    (match o.o_timer with
    | Some id -> (Host.clock t.host).cancel id
    | None -> ());
    o.o_timer <- None;
    Hashtbl.remove t.pending xfer_id;
    (match result with
    | Ok () ->
      Registry.Counter.incr t.accepts;
      Registry.Counter.add t.transfer_bytes (String.length o.o_payload)
    | Error _ -> ());
    o.o_on_result result
  end

let handle_ack t ~xfer_id ~next =
  match Hashtbl.find_opt t.pending xfer_id with
  | None -> ()
  | Some o ->
    (* the verdict, not an Ack, reports the last installment *)
    if next > o.o_next_needed && next < o.o_total then begin
      (match o.o_probe with
      | Some (p, _) when next > p -> sample_rtt t o
      | _ -> ());
      o.o_next_needed <- next;
      o.o_attempts <- 0;
      Rto.reset_backoff o.o_rto;
      refill t xfer_id o
    end

(* --- receiver ------------------------------------------------------ *)

let send_verdict t ~dst ~xfer_id = function
  | Ok () -> send_msg t ~dst (Accept { xfer_id })
  | Error reason -> send_msg t ~dst (Reject { xfer_id; reason })

let install_payload t ~src payload =
  match Snapshot.decode payload with
  | Error e -> Error e
  | Ok conn -> (
    match t.installer with
    | None -> Error "no installer registered"
    | Some install -> install ~src conn)

let handle_chunk t ~src ~xfer_id ~seq ~total ~data =
  Registry.Counter.incr t.chunks_received;
  let key = (Ipaddr.to_int src, xfer_id) in
  let state =
    match Hashtbl.find_opt t.incoming key with
    | Some st -> Some st
    | None ->
      if total < 1 || total > max_total_chunks then None
      else begin
        (* first installment of a new transfer *)
        Registry.Counter.incr t.offers_received;
        let st =
          Assembling { a_total = total; a_slots = Array.make total None;
                       a_next = 0 }
        in
        Hashtbl.replace t.incoming key st;
        Some st
      end
  in
  match state with
  | None -> ()
  | Some (Verdict v) ->
    (* the sender re-poked: its Accept/Reject must have been lost *)
    Registry.Counter.incr t.duplicate_chunks;
    send_verdict t ~dst:src ~xfer_id v
  | Some (Assembling a) ->
    if total <> a.a_total || seq < 0 || seq >= a.a_total then ()
    else begin
      (match a.a_slots.(seq) with
      | Some _ -> Registry.Counter.incr t.duplicate_chunks
      | None ->
        a.a_slots.(seq) <- Some data;
        while a.a_next < a.a_total && a.a_slots.(a.a_next) <> None do
          a.a_next <- a.a_next + 1
        done);
      if a.a_next < a.a_total then
        send_msg t ~dst:src (Ack { xfer_id; next = a.a_next })
      else begin
        let payload =
          String.concat ""
            (Array.to_list
               (Array.map (function Some s -> s | None -> "") a.a_slots))
        in
        let verdict = install_payload t ~src payload in
        (match verdict with
        | Ok () -> ()
        | Error _ -> Registry.Counter.incr t.rejects);
        (* drop the assembled chunks, keep only the verdict *)
        Hashtbl.replace t.incoming key (Verdict verdict);
        send_verdict t ~dst:src ~xfer_id verdict
      end
    end

(* The verdict is also the final acknowledgement, so it carries the
   RTT sample the last installment's Ack used to. *)
let verdict t xfer_id result =
  match Hashtbl.find_opt t.pending xfer_id with
  | None -> ()
  | Some o ->
    sample_rtt t o;
    finish t xfer_id o result

let handle_msg t ~src m =
  match m with
  | Chunk { xfer_id; seq; total; data } ->
    handle_chunk t ~src ~xfer_id ~seq ~total ~data
  | Ack { xfer_id; next } -> handle_ack t ~xfer_id ~next
  | Accept { xfer_id } -> verdict t xfer_id (Ok ())
  | Reject { xfer_id; reason } -> verdict t xfer_id (Error reason)

let attach host =
  let obs = Obs.scope (Obs.root (Host.obs host)) "statex" in
  let t =
    {
      host;
      rto_ins = lazy (Rto.instruments obs);
      installer = None;
      pending = Hashtbl.create 8;
      incoming = Hashtbl.create 8;
      next_id = 1;
      last_rtt = None;
      offers_sent = Obs.counter obs "offers_sent";
      offers_received = Obs.counter obs "offers_received";
      accepts = Obs.counter obs "accepts";
      rejects = Obs.counter obs "rejects";
      timeouts = Obs.counter obs "timeouts";
      transfer_bytes = Obs.counter obs "transfer_bytes";
      chunks_sent = Obs.counter obs "chunks_sent";
      chunks_received = Obs.counter obs "chunks_received";
      chunk_retransmits = Obs.counter obs "chunk_retransmits";
      duplicate_chunks = Obs.counter obs "duplicate_chunks";
      datagrams_sent = Obs.counter obs "datagrams_sent";
      batch_depth = 0;
      outboxes = [];
    }
  in
  (* unsealable datagrams, bundles included, count once each in
     [ip.malformed.statex] *)
  Ip_layer.register (Host.ip host) ~proto ~name:"statex" ~decode
    (fun ~src msgs -> batch t (fun () -> List.iter (handle_msg t ~src) msgs));
  t

let set_installer t f = t.installer <- Some f

let offer t ~dst conn ~on_result =
  let xfer_id = t.next_id in
  t.next_id <- t.next_id + 1;
  let payload = Snapshot.encode conn in
  let total = (String.length payload + chunk_data - 1) / chunk_data in
  let total = max 1 total in
  let o =
    {
      o_dst = dst;
      o_payload = payload;
      o_total = total;
      o_rto =
        Rto.create (Lazy.force t.rto_ins) ~init:(Time.ms 10)
          ~min:(Time.ms 2) ~max:(Time.ms 256) ();
      o_next_needed = 0;
      o_sent_hi = 0;
      o_attempts = 0;
      o_timer = None;
      o_probe = None;
      o_done = false;
      o_on_result = on_result;
    }
  in
  Registry.Counter.incr t.offers_sent;
  Hashtbl.replace t.pending xfer_id o;
  batch t (fun () -> refill t xfer_id o)

let fits t ~dst conn =
  match find_outbox t dst with
  | None -> true
  | Some ob ->
    let image = String.length (Snapshot.encode conn) in
    joins ob (chunk_header + min chunk_data image)

let pending_count t = Hashtbl.length t.pending

(* One full window of MSS-sized chunks per RTT: the spacing at which a
   steady stream of small snapshots saturates the channel without ever
   queueing more than a window.  Before the first sample, a LAN-scale
   guess. *)
let suggested_pace t =
  match t.last_rtt with
  | Some rtt -> max (Time.us 10) (rtt / window)
  | None -> Time.us 200

type stats = {
  offers_sent : int;
  offers_received : int;
  accepts : int;
  rejects : int;
  timeouts : int;
  transfer_bytes : int;
  chunks_sent : int;
  chunks_received : int;
  chunk_retransmits : int;
  duplicate_chunks : int;
  datagrams_sent : int;
}

let stats (t : t) =
  let v = Registry.Counter.value in
  {
    offers_sent = v t.offers_sent;
    offers_received = v t.offers_received;
    accepts = v t.accepts;
    rejects = v t.rejects;
    timeouts = v t.timeouts;
    transfer_bytes = v t.transfer_bytes;
    chunks_sent = v t.chunks_sent;
    chunks_received = v t.chunks_received;
    chunk_retransmits = v t.chunk_retransmits;
    duplicate_chunks = v t.duplicate_chunks;
    datagrams_sent = v t.datagrams_sent;
  }
