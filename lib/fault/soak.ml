module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module Rng = Tcpfo_util.Rng
module Seq32 = Tcpfo_util.Seq32
module Ipaddr = Tcpfo_packet.Ipaddr
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Tcp_segment = Tcpfo_packet.Tcp_segment
module Eth_frame = Tcpfo_packet.Eth_frame
module Capture = Tcpfo_net.Capture
module Medium = Tcpfo_net.Medium
module Transfer = Tcpfo_statex.Transfer
module Ip_layer = Tcpfo_ip.Ip_layer
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Topo = Tcpfo_host.Topo
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Replicated = Tcpfo_core.Replicated
module Chain = Tcpfo_core.Chain
module Failover_config = Tcpfo_core.Failover_config
module Registry = Tcpfo_obs.Registry
module Dispatch = Tcpfo_dispatch.Dispatch
module Bulk = Tcpfo_apps.Bulk

type victim = Primary | Secondary | Nobody
type phase = Handshake | Transfer | Fin | Idle

type chaos =
  | Calm
  | Burst
  | Drops
  | Corruption
  | Cross_traffic
  | Pause_client
  | Partition_client

type repair = No_repair | Repair | Repair_then_rekill
type pool = Pair | Pool3 of { rejoin_first : bool }
type role = Server | Backend_client | Chain3

type scenario = {
  seed : int;
  victim : victim;
  phase : phase;
  chaos : chaos;
  size : int;
  repair : repair;
  xfer_loss : float;
  pool : pool;
  role : role;
  fleet : bool;
  checkpointed : bool;
}

type outcome = {
  scenario : scenario;
  violations : string list;
  metrics : string;
}

(* ------------------------------------------------------------------ *)
(* The scenario space as data: one row per axis, drawn in table order
   from one RNG.  A row whose [gate] (over the raw draws of the rows
   above it) is false consumes no randomness and takes [off]; once every
   row is drawn, each row's [force] (over the scenario forced so far)
   may override its draw with [off].  Appending a row leaves every
   existing seed's draws untouched.  A force also covers its row's gate
   where the gate reads a row that {!override} may set (a row a gate
   skipped already holds [off], so no seed notices). *)

type row =
  | Row : {
      name : string;
      values : ('a * int * string) list;  (** value, weight, label *)
      off : 'a;
      gate : scenario -> bool;
      force : scenario -> bool;
      get : scenario -> 'a;
      set : scenario -> 'a -> scenario;
    }
      -> row

let row ?(gate = fun _ -> true) ?(force = fun _ -> false) name ~off ~get ~set
    values =
  Row { name; values; off; gate; force; get; set }

let killed s = s.victim <> Nobody
let unkilled s = not (killed s)

let rows =
  [
    row "kill" ~off:Nobody
      ~get:(fun s -> s.victim)
      ~set:(fun s victim -> { s with victim })
      [ (Nobody, 3, "nobody"); (Primary, 5, "primary");
        (Secondary, 2, "secondary") ];
    row "phase" ~gate:killed ~force:unkilled ~off:Idle
      ~get:(fun s -> s.phase)
      ~set:(fun s phase -> { s with phase })
      [ (Handshake, 1, "handshake"); (Transfer, 3, "transfer"); (Fin, 1, "fin");
        (Idle, 1, "idle") ];
    row "chaos" ~off:Calm
      ~get:(fun s -> s.chaos)
      ~set:(fun s chaos -> { s with chaos })
      [ (Calm, 3, "calm"); (Burst, 1, "burst"); (Drops, 1, "drops");
        (Corruption, 1, "corruption"); (Cross_traffic, 1, "cross");
        (Pause_client, 1, "pause"); (Partition_client, 1, "partition") ];
    row "size" ~off:2_000
      ~get:(fun s -> s.size)
      ~set:(fun s size -> { s with size })
      [ (2_000, 2, "2000"); (20_000, 2, "20000"); (120_000, 1, "120000");
        (400_000, 1, "400000") ];
    (* a pool's repair IS the automatic promotion of its standby *)
    row "repair" ~gate:killed ~off:No_repair
      ~force:(fun s -> unkilled s || s.pool <> Pair)
      ~get:(fun s -> s.repair)
      ~set:(fun s repair -> { s with repair })
      [ (No_repair, 2, "none"); (Repair, 1, "repair");
        (Repair_then_rekill, 1, "repair+rekill") ];
    (* gated on the drawn repair: in a pool the burst covers the
       promotion's transfers instead; forced off where no transfer
       follows *)
    row "xloss" ~off:0.0
      ~gate:(fun s -> s.repair <> No_repair)
      ~force:(fun s -> unkilled s || (s.repair = No_repair && s.pool = Pair))
      ~get:(fun s -> s.xfer_loss)
      ~set:(fun s xfer_loss -> { s with xfer_loss })
      [ (0.0, 2, "0.00"); (0.2, 1, "0.20"); (0.35, 1, "0.35") ];
    row "pool" ~gate:killed ~force:unkilled ~off:Pair
      ~get:(fun s -> s.pool)
      ~set:(fun s pool -> { s with pool })
      [ (Pair, 2, "pair"); (Pool3 { rejoin_first = false }, 1, "pool3");
        (Pool3 { rejoin_first = true }, 1, "pool3+rejoin") ];
    (* the §7.2 backend and the chain compose with the plain killed pair
       only *)
    row "role" ~off:Server
      ~force:(fun s ->
        unkilled s || s.pool <> Pair || s.chaos = Cross_traffic)
      ~get:(fun s -> s.role)
      ~set:(fun s role -> { s with role })
      [ (Server, 3, "server"); (Backend_client, 1, "backend");
        (Chain3, 1, "chain") ];
    row "fleet" ~off:false
      ~force:(fun s ->
        s.pool <> Pair || s.role <> Server || s.chaos = Cross_traffic)
      ~get:(fun s -> s.fleet)
      ~set:(fun s fleet -> { s with fleet })
      [ (true, 1, "true"); (false, 5, "false") ];
    (* only meaningful where a hot state transfer happens *)
    row "ckpt" ~off:false
      ~force:(fun s ->
        s.fleet || s.role <> Server || s.chaos = Cross_traffic
        || (s.repair = No_repair && s.pool = Pair))
      ~get:(fun s -> s.checkpointed)
      ~set:(fun s checkpointed -> { s with checkpointed })
      [ (true, 1, "true"); (false, 2, "false") ];
  ]

let all_off seed =
  List.fold_left
    (fun s (Row r) -> r.set s r.off)
    {
      seed; victim = Nobody; phase = Idle; chaos = Calm; size = 0;
      repair = No_repair; xfer_loss = 0.0; pool = Pair; role = Server;
      fleet = false; checkpointed = false;
    }
    rows

let draw rng s (Row r) =
  if not (r.gate s) then s
  else
    let total = List.fold_left (fun n (_, w, _) -> n + w) 0 r.values in
    let rec pick k = function
      | (v, w, _) :: rest -> if k < w then v else pick (k - w) rest
      | [] -> assert false
    in
    r.set s (pick (Rng.int rng total) r.values)

let apply_forces s =
  List.fold_left
    (fun s (Row r) -> if r.force s then r.set s r.off else s)
    s rows

(* The scenario is drawn from the seed alone, so a seed printed in a
   failure report reconstructs the exact run. *)
let draws seed =
  let rng = Rng.create ~seed:((seed * 0x9E3779B9) + 1) in
  List.fold_left (draw rng) (all_off seed) rows

let scenario_of_seed seed = apply_forces (draws seed)

let label (Row r) s =
  match List.find_opt (fun (v, _, _) -> v = r.get s) r.values with
  | Some (_, _, l) -> l
  | None -> "?"

let axes =
  List.map
    (fun (Row r) -> (r.name, List.map (fun (_, _, l) -> l) r.values))
    rows

let labels s = List.map (fun (Row r as row) -> (r.name, label row s)) rows

let describe s =
  match labels s with
  | (_, victim) :: (_, phase) :: rest ->
    String.concat " "
      (Printf.sprintf "seed=%d kill=%s/%s" s.seed victim phase
      :: List.map (fun (n, l) -> n ^ "=" ^ l) rest)
  | _ -> assert false

(* A seed's raw draws with some axes replaced by label, then forced as
   a drawn seed is.  A setting the forces rewrite is refused, not run as
   something else. *)
let override seed sets =
  let rec set s = function
    | [] -> Ok s
    | (axis, want) :: rest -> (
      match List.find_opt (fun (Row r) -> r.name = axis) rows with
      | None ->
        Error
          (Printf.sprintf "unknown axis %S (axes: %s)" axis
             (String.concat ", " (List.map fst axes)))
      | Some (Row r) -> (
        match List.find_opt (fun (_, _, l) -> l = want) r.values with
        | Some (v, _, _) -> set (r.set s v) rest
        | None ->
          Error
            (Printf.sprintf "row %s has no label %S (labels: %s)" axis want
               (String.concat ", " (List.assoc axis axes)))))
  in
  Result.bind (set (draws seed) sets) (fun s ->
      let s = apply_forces s in
      let got = labels s in
      match List.find_opt (fun (axis, want) -> List.assoc axis got <> want) sets
      with
      | None -> Ok s
      | Some (axis, want) ->
        Error
          (Printf.sprintf "row %s: the table rewrites %s=%s to %s=%s in %s"
             axis axis want axis (List.assoc axis got) (describe s)))

(* ---- pairwise coverage ------------------------------------------- *)

type pair = (string * string) * (string * string)
type coverage = { reachable : pair list; uncovered : pair list }

let pair_to_string ((a, x), (b, y)) = Printf.sprintf "%s=%s&%s=%s" a x b y

let pairs s =
  let rec go acc = function
    | [] -> acc
    | a :: rest ->
      go (List.fold_left (fun acc b -> (a, b) :: acc) acc rest) rest
  in
  go [] (labels s)

(* Every raw combination the gates admit (a skipped row holds [off]),
   forced: exactly the scenarios some seed can draw. *)
let reachable_pairs () =
  let seen = Hashtbl.create 1024 in
  let rec walk s = function
    | [] ->
      List.iter (fun p -> Hashtbl.replace seen p ()) (pairs (apply_forces s))
    | Row r :: rest ->
      if not (r.gate s) then walk s rest
      else List.iter (fun (v, _, _) -> walk (r.set s v) rest) r.values
  in
  walk (all_off 0) rows;
  List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) seen [])

let coverage scenarios =
  let hit = Hashtbl.create 1024 in
  List.iter
    (fun s -> List.iter (fun p -> Hashtbl.replace hit p ()) (pairs s))
    scenarios;
  let reachable = reachable_pairs () in
  let uncovered = List.filter (fun p -> not (Hashtbl.mem hit p)) reachable in
  { reachable; uncovered }

(* ------------------------------------------------------------------ *)
(* Application and wire plumbing shared by every world *)

let pattern ~tag n =
  String.init n (fun i -> Char.chr ((i * 131 + tag * 7 + i / 251) land 0xFF))

let service_port = 5000
let cross_port = 5001
let ckpt_port = 5002
let backend_port = 7000
let cross_size = 30_000
let ck_req_bytes = 1_200

(* retention budget for the checkpointed-connection axis: far smaller
   than the connection's lifetime traffic, so only the application's
   per-request checkpoints keep it transferable *)
let ck_tcp_config =
  { Tcpfo_tcp.Tcp_config.default with retention_budget = 8_000 }

(* deterministic request/reply service body, shared by every role *)
let service_app ~reply tcb =
  let got = Buffer.create 8 in
  Tcb.set_on_data tcb (fun data ->
      Buffer.add_string got data;
      if Buffer.length got >= 4 then Bulk.send_and_close tcb reply)

let install_service repl ~port ~reply =
  Replicated.listen repl ~port ~on_accept:(fun ~role:_ tcb ->
      service_app ~reply tcb)

(* Wire-level observer on the unreplicated peer: every TCP segment
   arriving from the service address and matching [seg_match] is checked
   against the service's sequence numbering.  After a failover the
   survivor must keep speaking in the numbering the peer already knows
   (the paper's central claim): a SYN carrying a fresh ISN or a data
   segment whose payload disagrees with [expected] at its sequence
   offset is a violation, as is any RST.  For a server-role service the
   ISN arrives on the SYN-ACK; for a §7.2 client-role connection it
   arrives on the service's own SYN. *)
let install_wire_check client ~svc ~seg_match ~expected violations =
  let isn = ref None in
  let flag msg = violations := msg :: !violations in
  let inner = Ip_layer.rx_hook (Host.ip client) in
  Ip_layer.set_rx_hook (Host.ip client)
    (Some
       (fun pkt ~link_addressed ->
         (match pkt.Ipv4_packet.payload with
         | Ipv4_packet.Tcp seg
           when Ipaddr.equal pkt.Ipv4_packet.src svc && seg_match seg -> (
           let flags = seg.Tcp_segment.flags in
           if flags.Tcp_segment.rst then flag "RST reached the peer";
           if flags.Tcp_segment.syn then (
             match !isn with
             | None -> isn := Some seg.Tcp_segment.seq
             | Some i when Seq32.diff seg.Tcp_segment.seq i = 0 -> ()
             | Some _ ->
               flag "second SYN left the service's original numbering");
           let len = String.length seg.Tcp_segment.payload in
           if len > 0 then
             match !isn with
             | None -> flag "data before the service's SYN"
             | Some i ->
               let off = Seq32.diff seg.Tcp_segment.seq (Seq32.succ i) in
               if off < 0 || off + len > String.length expected then
                 flag
                   (Printf.sprintf
                      "wire sequence offset %d outside the stream (len %d)" off
                      len)
               else if String.sub expected off len <> seg.Tcp_segment.payload
               then
                 flag (Printf.sprintf "wire payload mismatch at offset %d" off))
         | _ -> ());
         match inner with
         | None -> Ip_layer.Rx_pass pkt
         | Some hook -> hook pkt ~link_addressed))

(* Chaos, scheduled at absolute instants when the run starts.  Bursts
   are kept well under the heartbeat detector's silence budget so chaos
   never masquerades as a crash, and only the client is
   paused/partitioned (freezing a replica IS a failure as far as the
   detector can know). *)
let schedule_chaos engine inj ~client ~lan chaos =
  let at ms f = ignore (Engine.schedule_at engine ~at:(Time.ms ms) f) in
  match chaos with
  | Calm | Cross_traffic -> ()
  | Burst ->
    at 2 (fun () -> Injector.loss_burst inj lan ~p:0.35 ~for_:(Time.ms 6))
  | Drops -> at 2 (fun () -> Injector.drop inj lan 3)
  | Corruption -> at 2 (fun () -> Injector.corrupt inj lan 2)
  | Pause_client ->
    at 2 (fun () -> Host.pause client);
    at 8 (fun () -> Host.resume client)
  | Partition_client ->
    at 2 (fun () ->
        Host.set_partitioned client true;
        ignore
          (Engine.schedule engine ~delay:(Time.ms 6) (fun () ->
               Host.set_partitioned client false)))

(* rough wire time of the reply, for placing mid-transfer kills *)
let transfer_estimate size = Time.ms 1 + (size * 100)

(* an expectation: whether it holds, and the violation if not *)
type item = bool * string

let expect ok fmt = Printf.ksprintf (fun why -> ((ok, why) : item)) fmt

(* every statex control datagram on a segment, for the MSS-bound check *)
let capture_transfers world seg =
  Capture.start (World.engine world) seg
    ~filter:(fun f ->
      match f.Eth_frame.payload with
      | Eth_frame.Ip { Ipv4_packet.payload = Ipv4_packet.Raw { proto; _ }; _ }
        ->
        proto = Transfer.proto
      | _ -> false)
    ()

let transfer_mss_items capture =
  let items =
    List.filter_map
      (fun { Capture.frame; _ } ->
        match frame.Eth_frame.payload with
        | Eth_frame.Ip { Ipv4_packet.payload = Ipv4_packet.Raw { data; _ }; _ }
          ->
          let n = String.length data in
          Some
            (expect (n <= Transfer.max_datagram_bytes)
               "transfer datagram of %d B exceeds the %d B MSS bound" n
               Transfer.max_datagram_bytes)
        | _ -> None)
      (Capture.records capture)
  in
  Capture.stop capture;
  items

(* ------------------------------------------------------------------ *)
(* The scenario driver.  A world ("rig") builds its topology, services
   and client connections and reports its control-plane events as
   [signal]s; the driver owns everything the worlds share — chaos,
   transfer capture, the phase-timed kill, the xfer-loss burst, the
   repair → rekill choreography, the drive loop and the checks. *)

(* A connection hot state transfer pinned solo.  [early]: its TCB had
   not reached ESTABLISHED, so it could not be snapshotted — by design,
   not a failure. *)
type pin = {
  svc : Ipaddr.t;
  local_port : int;
  remote : Ipaddr.t * int;
  early : bool;
}

type signal =
  | Ready  (** the kill has been absorbed: a repair may start *)
  | Promoted  (** a pool standby was promoted (cascading failover) *)
  | Settled  (** a hot state transfer run completed *)
  | Pinned of pin

let pinned ~svc ~local_port ~remote (state : Tcb.state) =
  let early = match state with Syn_sent | Syn_received -> true | _ -> false in
  Pinned { svc; local_port; remote; early }

(* an unreplicated endpoint's view of one connection *)
type peer = {
  buf : Buffer.t;
  mutable eof : bool;
  mutable resets : int;
  mutable tcb : Tcb.t option;
  mutable verified : int;  (** stream length last found to match *)
}

(* a connection whose survival the driver checks: [peer] must read
   [expected] in full and see a clean close; [is] recognises its pins *)
type conn = { name : string; peer : peer; expected : string; is : pin -> bool }

type rig = {
  client : Host.t;  (** the one host chaos pauses or partitions *)
  lan : Medium.t;  (** the client's segment, where chaos drops frames *)
  xfer : Medium.t;  (** the segment hot state transfers ride *)
  kill : unit -> unit;
  fresh_host : unit -> Host.t;  (** a repaired host, up and ARP-warm *)
  reintegrate : Host.t -> unit;
  rekill : unit -> unit;
  watch : (signal -> unit) -> unit;
  conns : conn list;
  slice : Time.t;  (** drive step; the stop instant fixes the metrics *)
  end_state : unit -> item list;
      (** evaluated before every step: the loop stops once it all holds,
          and whatever fails at the deadline is a violation *)
  checks : unit -> item list;  (** what must never have been broken *)
}

type ctx = {
  sc : scenario;
  world : World.t;
  timing_rng : Rng.t;
  reply : string;
  violations : string list ref;  (** wire-check findings, newest first *)
  mutable hosts : Host.t list;  (** every host that may hold a replica *)
  mutable kill : unit -> unit;
  mutable fin_armed : bool;
  mutable repaired : bool;
  mutable promoted : bool;
  mutable settled : bool;
  mutable rekilled : bool;
  mutable pins : pin list;
}

let after ctx delay f =
  ignore (Engine.schedule (World.engine ctx.world) ~delay f)

(* The Fin-phase kill arms the instant the peer holds the whole stream:
   the FIN is in flight or acked but the connection has not closed — the
   paper's narrowest takeover window. *)
let reached_full ctx =
  if ctx.sc.victim <> Nobody && ctx.sc.phase = Fin && not ctx.fin_armed
  then begin
    ctx.fin_armed <- true;
    after ctx (Rng.int ctx.timing_rng (Time.us 200)) (fun () -> ctx.kill ())
  end

let spare ctx seg ?tcp_config ~addr () =
  let h = World.add_host ctx.world seg ?tcp_config ~name:"repaired" ~addr () in
  ctx.hosts <- ctx.hosts @ [ h ];
  h

(* The pinned-solo rule.  A connection pinned solo before ESTABLISHED is
   exempt from restored-replica checks ([pinned_early]) and, once it is
   [lost], from survival checks: the paper's guarantees never covered
   unreplicated state.  It is lost when no live host holds it and its
   peer cannot re-create it — a peer still in SYN_SENT retries its SYN
   onto a live replica. *)
let pinned_early ctx c = List.exists (fun p -> p.early && c.is p) ctx.pins

let lost ctx c =
  let held p =
    List.exists
      (fun h ->
        Host.alive h
        && Stack.mem (Host.tcp h) ~local:(p.svc, p.local_port) ~remote:p.remote)
      ctx.hosts
  in
  let retrying =
    match c.peer.tcb with Some t -> Tcb.state t = Tcb.Syn_sent | None -> false
  in
  (not retrying)
  && List.exists (fun p -> p.early && c.is p && not (held p)) ctx.pins

let new_peer () =
  { buf = Buffer.create 64; eof = false; resets = 0; tcb = None; verified = -1 }

let peer_closed p =
  match p.tcb with
  | Some t -> (
    match Tcb.state t with Tcb.Closed | Tcb.Time_wait -> true | _ -> false)
  | None -> false

(* checked every drive-loop slice, so a verified stream is not re-copied *)
let stream_ok p expected =
  let n = Buffer.length p.buf in
  n = String.length expected
  && (p.verified = n
     || Buffer.contents p.buf = expected
        && begin
             p.verified <- n;
             true
           end)

(* open a client connection that requests the service's reply; [arm]
   lets a full stream arm the Fin-phase kill *)
let connect_peer ctx p host ~remote ~arm =
  let c = Stack.connect (Host.tcp host) ~remote () in
  p.tcb <- Some c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "get\n"));
  Tcb.set_on_data c (fun d ->
      Buffer.add_string p.buf d;
      if arm && Buffer.length p.buf >= ctx.sc.size then reached_full ctx);
  Tcb.set_on_eof c (fun () ->
      p.eof <- true;
      Tcb.close c);
  Tcb.set_on_reset c (fun () -> p.resets <- p.resets + 1)

let peer_items name p ~expected : item list =
  [
    expect (stream_ok p expected)
      "%s: stream diverged from the application's (%d/%d B)" name
      (Buffer.length p.buf) (String.length expected);
    expect p.eof "%s: EOF never delivered" name;
    expect (peer_closed p) "%s: never terminated (state %s)" name
      (match p.tcb with
      | Some t -> Tcb.state_to_string (Tcb.state t)
      | None -> "absent");
  ]

let reset_item name p = expect (p.resets = 0) "%s: saw a reset" name

(* end state of one replicated pair after the scenario's kill plan *)
let pair_end_state sc p : item list =
  let status want = expect (Replicated.status p = want) in
  match (sc.victim, sc.repair) with
  | Nobody, _ -> [ status `Normal "spurious failover: status left Normal" ]
  | Primary, No_repair ->
    [ status `Primary_failed "primary killed but its failure never detected" ]
  | Secondary, No_repair ->
    [ status `Secondary_failed "secondary killed but failure never detected" ]
  | _, Repair ->
    [
      status `Normal "repaired host joined but the pair never returned Normal";
      expect
        (Replicated.pending_transfers p = 0)
        "hot state transfers never settled";
    ]
  | _, Repair_then_rekill ->
    [ status `Primary_failed "survivor re-killed but its death never detected" ]

let transfer_failures_item n : item =
  expect (n = 0) "%d hot state transfer(s) failed under a lossy control channel"
    n

let replicated_signal sc ~svc : Replicated.event -> signal option = function
  | Replicated.Secondary_failure_detected when sc.victim = Secondary ->
    Some Ready
  | Takeover_complete when sc.victim = Primary -> Some Ready
  | Promoted _ -> Some Promoted
  | Transfers_complete _ -> Some Settled
  | Isolated { local_port; remote; state } ->
    Some (pinned ~svc ~local_port ~remote state)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Replicated-pair / pool worlds: the server app and the §7.2 backend
   app share everything but the application plumbing. *)

let pool_rig ctx =
  let sc = ctx.sc and world = ctx.world in
  let pool3 = sc.pool <> Pair and cross = sc.chaos = Cross_traffic in
  (* pool hosts run under the tight retention budget on the
     checkpointed-connection axis *)
  let pool_cfg = if sc.checkpointed then Some ck_tcp_config else None in
  let host ?tcp_config addr name =
    Topo.host ?tcp_config ~addr ~seg:"lan" name
  in
  let spec =
    Topo.segment "lan" :: host "10.0.0.10" "client"
    :: host ?tcp_config:pool_cfg "10.0.0.1" "primary"
    :: host ?tcp_config:pool_cfg "10.0.0.2" "secondary"
    :: ((if cross then [ host "10.0.0.11" "cross" ] else [])
       @ (if pool3 then [ host ?tcp_config:pool_cfg "10.0.0.4" "standby" ]
          else [])
       @ [
           Topo.group "pool"
             ~members:
               ([ "primary"; "secondary" ]
               @ if pool3 then [ "standby" ] else []);
         ])
  in
  let topo = Topo.build world spec in
  ctx.hosts <- Topo.hosts topo;
  let lan = Topo.segment_of topo "lan" in
  let client = Topo.host_of topo "client" in
  let primary = Topo.host_of topo "primary" in
  let secondary = Topo.host_of topo "secondary" in
  let cross_host = if cross then Some (Topo.host_of topo "cross") else None in
  let config =
    Failover_config.make
      ~service_ports:
        ([ service_port; cross_port ]
        @ if sc.checkpointed then [ ckpt_port ] else [])
      ()
  in
  let repl =
    Replicated.create_pool ~replicas:(Topo.group_of topo "pool") ~config ()
  in
  let svc = Replicated.service_addr repl in
  if sc.role = Server then
    install_service repl ~port:service_port ~reply:ctx.reply;
  let cross_reply = pattern ~tag:(sc.seed + 1) cross_size in
  if cross then install_service repl ~port:cross_port ~reply:cross_reply;
  (* checkpointed-connection service: answers each fixed-size request
     with "done" and checkpoints at the request boundary — the
     application's safe point, where a restored replica's fresh request
     counter is consistent with replay starting at the checkpoint *)
  if sc.checkpointed then
    Replicated.listen repl ~port:ckpt_port ~on_accept:(fun ~role:_ tcb ->
        let got = ref 0 in
        Tcb.set_on_data tcb (fun d ->
            got := !got + String.length d;
            while !got >= ck_req_bytes do
              got := !got - ck_req_bytes;
              ignore (Tcb.send tcb "done")
            done;
            if !got = 0 then Tcb.checkpoint tcb));
  (* what the unreplicated peer must see from the service address: the
     reply stream (server role) or the request the replicated client
     sends its backend (§7.2 role) *)
  let expected, seg_match, is_main =
    match sc.role with
    | Backend_client ->
      ( "get\n",
        (fun (seg : Tcp_segment.t) -> seg.dst_port = backend_port),
        fun p -> snd p.remote = backend_port )
    | Server | Chain3 ->
      ( ctx.reply,
        (fun (seg : Tcp_segment.t) -> seg.src_port = service_port),
        fun p ->
          p.local_port = service_port
          && Ipaddr.equal (fst p.remote) (Host.addr client) )
  in
  install_wire_check client ~svc ~seg_match ~expected ctx.violations;
  let main = new_peer () in
  (* §7.2 replica-side assembly buffers, one per setup invocation
     (including re-invocations on a repaired host) *)
  let app_bufs = ref [] in
  (match sc.role with
  | Backend_client ->
    (* the "client" host plays the unreplicated backend server: it
       receives the pool's request and streams the reply back *)
    Stack.listen (Host.tcp client) ~port:backend_port ~on_accept:(fun tcb ->
        main.tcb <- Some tcb;
        Tcb.set_on_data tcb (fun d ->
            Buffer.add_string main.buf d;
            if Buffer.length main.buf >= 4 then Bulk.send_and_close tcb ctx.reply);
        Tcb.set_on_eof tcb (fun () -> main.eof <- true);
        Tcb.set_on_reset tcb (fun () -> main.resets <- main.resets + 1));
    Replicated.connect_backend repl ~remote:(Host.addr client, backend_port)
      ~setup:(fun ~role:_ tcb ->
        let b = Buffer.create sc.size in
        app_bufs := b :: !app_bufs;
        Tcb.set_on_established tcb (fun () -> ignore (Tcb.send tcb "get\n"));
        Tcb.set_on_data tcb (fun d ->
            Buffer.add_string b d;
            if Buffer.length b >= sc.size then reached_full ctx);
        Tcb.set_on_eof tcb (fun () -> Tcb.close tcb))
      ()
  | Server | Chain3 ->
    connect_peer ctx main client ~remote:(svc, service_port) ~arm:true);
  (* optional cross traffic, started shortly after the main connection *)
  let cross_peer = new_peer () in
  Option.iter
    (fun h ->
      after ctx (Time.us 500) (fun () ->
          connect_peer ctx cross_peer h ~remote:(svc, cross_port) ~arm:false))
    cross_host;
  (* the checkpointed long-lived connection: a reply-driven request
     stream that stays open for the whole run.  Each request is answered
     with "done"; progress after the hot state transfers settle proves
     the delta-restored connection still serves *)
  let ck = new_peer () in
  let ck_sent = ref 0 and ck_replies = ref 0 and ck_floor = ref None in
  let ck_conn =
    let is p = p.local_port = ckpt_port in
    { name = "checkpointing connection"; peer = ck; expected = ""; is }
  in
  if sc.checkpointed then
    after ctx (Time.us 700) (fun () ->
        let c = Stack.connect (Host.tcp client) ~remote:(svc, ckpt_port) () in
        ck.tcb <- Some c;
        let send_req () =
          incr ck_sent;
          (* one request in flight at a time, far under the send buffer,
             so the whole request is always accepted *)
          ignore (Tcb.send c (pattern ~tag:(9_000 + !ck_sent) ck_req_bytes))
        in
        Tcb.set_on_established c send_req;
        Tcb.set_on_data c (fun d ->
            Buffer.add_string ck.buf d;
            ck_replies := Buffer.length ck.buf / 4;
            if !ck_replies = !ck_sent then after ctx (Time.ms 2) send_req);
        Tcb.set_on_reset c (fun () -> ck.resets <- ck.resets + 1));
  let main_conn =
    { name = "connection"; peer = main; expected; is = is_main }
  in
  let full_apps () =
    List.length (List.filter (fun b -> Buffer.contents b = ctx.reply) !app_bufs)
  in
  (* whether the §7.2 backend connection had finished its close on every
     live replica when the repair's transfer began: such a connection
     holds nothing a repair could restore (DESIGN.md 7.16) *)
  let backend_closed_at_repair = ref false in
  let backend_held () =
    List.exists
      (fun h ->
        Host.alive h
        && List.exists
             (fun (e : Stack.listed) ->
               Ipaddr.equal (fst e.remote) (Host.addr client)
               && snd e.remote = backend_port)
             (Stack.entries (Host.tcp h)))
      ctx.hosts
  in
  {
    client;
    lan;
    xfer = lan;
    kill =
      (fun () ->
        match sc.victim with
        | Primary -> Replicated.kill_primary repl
        | Secondary -> Replicated.kill_secondary repl
        | Nobody -> ());
    fresh_host =
      (fun () ->
        let h = spare ctx lan ?tcp_config:pool_cfg ~addr:"10.0.0.3" () in
        (* warm_arp skips dead hosts itself, so the killed host's stale
           (service-address!) binding cannot override the takeover's
           gratuitous ARP *)
        World.warm_arp
          (client :: primary :: secondary :: h :: Option.to_list cross_host);
        h);
    reintegrate =
      (fun h ->
        backend_closed_at_repair :=
          sc.role = Backend_client && not (backend_held ());
        Replicated.reintegrate repl ~secondary:h);
    (* in a pool the second kill hits the promoted pair; with
       [rejoin_first] a repaired host rejoins the back of the pool just
       before it, so the second failover also cascades *)
    rekill =
      (fun () ->
        (match sc.pool with
        | Pool3 { rejoin_first = true } ->
          let h = spare ctx lan ?tcp_config:pool_cfg ~addr:"10.0.0.3" () in
          World.warm_arp (h :: Topo.hosts topo);
          Replicated.rejoin repl h
        | Pool3 _ | Pair -> ());
        Replicated.kill_primary repl);
    watch =
      (fun emit ->
        Replicated.set_on_event repl (fun e ->
            (match e with
            | Replicated.Transfers_complete _ when !ck_floor = None ->
              ck_floor := Some !ck_replies
            | _ -> ());
            Option.iter emit (replicated_signal sc ~svc e)));
    conns = [ main_conn ];
    slice = Time.sec 1.0;
    end_state =
      (fun () ->
        (if cross then
             [ expect (stream_ok cross_peer cross_reply)
                 "cross-traffic stream diverged" ]
           else [])
        @ (match sc.pool with
          | Pair -> pair_end_state sc repl
          | Pool3 { rejoin_first = true } ->
            [
              expect (Replicated.status repl = `Normal)
                "pool never returned to Normal after the second failover";
              expect (Replicated.pending_transfers repl = 0)
                "hot state transfers never settled";
              expect (Replicated.standbys repl = [])
                "rejoined host was never promoted by the second failover";
            ]
          | Pool3 _ ->
            [
              expect (Replicated.status repl = `Primary_failed)
                "second kill was never detected by the promoted pair";
            ])
        (* §7.2: the surviving replicas' application must hold the
           backend's complete reply — after a repair, on the restored
           connection too, unless the connection had already closed
           when the repair began *)
        @ (if sc.role <> Backend_client || lost ctx main_conn then []
           else
             expect (full_apps () >= 1)
               "no replica application assembled the backend reply"
             ::
             (if
                sc.repair = Repair
                && (not (pinned_early ctx main_conn))
                && not !backend_closed_at_repair
              then
                [
                  expect (full_apps () >= 2)
                    "restored replica never assembled the backend reply";
                ]
              else []))
        (* the checkpointed connection must demonstrably serve AFTER the
           hot state transfers settle *)
        @
        if sc.checkpointed && not (lost ctx ck_conn) then
          [
            expect
              (match !ck_floor with
              | Some f -> !ck_replies >= f + 2
              | None -> false)
              "checkpointing connection made no progress after reintegration";
          ]
        else []);
    checks =
      (fun () ->
        (if sc.repair <> No_repair || pool3 then
           [ transfer_failures_item (Replicated.transfer_failures repl) ]
         else [])
        (* the connection's per-request checkpoints kept it under the
           tight retention budget, and its reply stream stayed intact *)
        @
        if sc.checkpointed && not (lost ctx ck_conn) then
          let counter = Registry.counter_value (World.metrics world) in
          let s = Buffer.contents ck.buf in
          [
            reset_item ck_conn.name ck;
            expect
              (s = String.concat "" (List.init !ck_replies (fun _ -> "done")))
              "checkpointing connection's reply stream diverged (%d B)"
              (String.length s);
            expect (counter "statex.checkpoints" > 0)
              "no application checkpoint was ever taken";
            expect (counter "statex.retention_overflows" = 0)
              "checkpointing connection overflowed its retention budget";
          ]
        else []);
  }

(* ------------------------------------------------------------------ *)
(* Three-tier chain worlds: head / middle / tail serve the client; the
   kill hits the head or the tail, and repair re-enters the chain
   through {!Chain.rejoin} (hot state transfer onto the new tail). *)

let chain_rig ctx =
  let sc = ctx.sc and world = ctx.world in
  let topo =
    Topo.build world
      [
        Topo.segment "lan";
        Topo.host ~addr:"10.0.0.10" ~seg:"lan" "client";
        Topo.host ~addr:"10.0.0.1" ~seg:"lan" "head";
        Topo.host ~addr:"10.0.0.2" ~seg:"lan" "middle";
        Topo.host ~addr:"10.0.0.5" ~seg:"lan" "tail";
      ]
  in
  ctx.hosts <- Topo.hosts topo;
  let lan = Topo.segment_of topo "lan" in
  let client = Topo.host_of topo "client" in
  let config = Failover_config.make ~service_ports:[ service_port ] () in
  let chain =
    Chain.create
      ~replicas:(List.map (Topo.host_of topo) [ "head"; "middle"; "tail" ])
      ~config ()
  in
  let svc = Chain.service_addr chain in
  Chain.listen chain ~port:service_port ~on_accept:(fun ~replica:_ tcb ->
      service_app ~reply:ctx.reply tcb);
  install_wire_check client ~svc
    ~seg_match:(fun seg -> seg.Tcp_segment.src_port = service_port)
    ~expected:ctx.reply ctx.violations;
  let main = new_peer () in
  connect_peer ctx main client ~remote:(svc, service_port) ~arm:true;
  (* [Primary] kills the head, [Secondary] the tail *)
  let victim_idx =
    match sc.victim with Primary -> 0 | Secondary -> 2 | Nobody -> -1
  in
  let deaths = ref 0 in
  {
    client;
    lan;
    xfer = lan;
    kill = (fun () -> if victim_idx >= 0 then Chain.kill chain victim_idx);
    fresh_host =
      (fun () ->
        let h = spare ctx lan ~addr:"10.0.0.3" () in
        World.warm_arp (h :: Topo.hosts topo);
        h);
    reintegrate = (fun h -> ignore (Chain.rejoin chain h));
    rekill = (fun () -> Chain.kill chain (Chain.head chain));
    watch =
      (fun emit ->
        Chain.set_on_event chain (function
          | Chain.Death_detected _ ->
            incr deaths;
            if sc.victim = Secondary then emit Ready
          | Chain.Promoted _ -> if sc.victim = Primary then emit Ready
          | Chain.Transfers_complete _ -> emit Settled
          | Chain.Isolated { local_port; remote; state } ->
            emit (pinned ~svc ~local_port ~remote state)
          | Chain.Retargeted _ | Chain.Degraded _ | Chain.Rejoined _ -> ()));
    conns =
      [
        {
          name = "connection"; peer = main; expected = ctx.reply;
          is = (fun p -> p.local_port = service_port);
        };
      ];
    slice = Time.sec 1.0;
    end_state =
      (fun () ->
        let three = List.length (Chain.alive chain) = 3 in
        match (sc.victim, sc.repair) with
        | Nobody, _ ->
          [ expect three "spurious death: a replica left the chain unkilled" ]
        | _, No_repair ->
          [
            expect (!deaths >= 1) "replica killed but its death never detected";
            expect
              (not (List.mem victim_idx (Chain.alive chain)))
              "killed replica is still listed live";
          ]
        | _, Repair ->
          [
            expect (Chain.pending_transfers chain = 0)
              "hot state transfers still pending";
            expect three "chain never returned to three live replicas";
          ]
        | _, Repair_then_rekill ->
          [ expect (!deaths >= 2) "second kill was never detected" ]);
    checks =
      (fun () ->
        if sc.repair <> No_repair then
          [ transfer_failures_item (Chain.transfer_failures chain) ]
        else []);
  }

(* ------------------------------------------------------------------ *)
(* Fleet worlds: two two-replica shard pools on a back segment behind a
   dispatcher whose front interface owns the client-visible service
   address.  The kill hits whichever shard the connection is pinned to;
   a second ("drain") connection opened right after the failure is
   detected must complete through the fleet while the victim's weight
   decays, and repair must ramp the weight back to full. *)

let fleet_rig ctx =
  let sc = ctx.sc and world = ctx.world in
  let gw = "10.0.0.254" in
  let back_host addr name = Topo.host ~gateway:gw ~addr ~seg:"back" name in
  let topo =
    Topo.build world
      [
        Topo.segment "front";
        Topo.segment "back";
        Topo.host ~addr:"10.1.0.10" ~seg:"front" "client";
        back_host "10.0.0.1" "s0a";
        back_host "10.0.0.2" "s0b";
        back_host "10.0.0.11" "s1a";
        back_host "10.0.0.12" "s1b";
        Topo.group ~members:[ "s0a"; "s0b" ] "shard0";
        Topo.group ~members:[ "s1a"; "s1b" ] "shard1";
        Topo.service ~seg:"front" ~addr:"10.1.0.1" "fleet";
        Topo.dispatch ~service:"fleet" ~back:gw ~shards:[ "shard0"; "shard1" ]
          "disp";
      ]
  in
  ctx.hosts <- Topo.hosts topo;
  let front = Topo.segment_of topo "front" in
  let back = Topo.segment_of topo "back" in
  let client = Topo.host_of topo "client" in
  let config = Failover_config.make ~service_ports:[ service_port ] () in
  let disp, pools = Dispatch.of_topo topo ~name:"disp" ~config () in
  let svc = Dispatch.service disp in
  let max_w = Dispatch.default_config.max_weight in
  List.iter
    (fun (_, pool) -> install_service pool ~port:service_port ~reply:ctx.reply)
    pools;
  let client_port p =
    match p.tcb with Some t -> snd (Tcb.local_endpoint t) | None -> -1
  in
  let main = new_peer () in
  connect_peer ctx main client ~remote:(svc, service_port) ~arm:true;
  let main_port = client_port main in
  (* byte-exactness is checked against the DISPATCHER's address: the
     translated stream must still speak the shard's original numbering.
     The drain connection shares the source port, so pin the match to
     this connection's client port. *)
  install_wire_check client ~svc
    ~seg_match:(fun seg ->
      seg.Tcp_segment.src_port = service_port
      && seg.Tcp_segment.dst_port = main_port)
    ~expected:ctx.reply ctx.violations;
  (* the kill resolves its target at fire time *)
  let victim = ref None in
  let victim_pool () = Option.map (fun n -> List.assoc n pools) !victim in
  let victim_weight () =
    match !victim with Some n -> Dispatch.weight disp n | None -> max_w
  in
  (* every weight the victim shard passes through, not one sample per
     drive slice: a fast repair can undo a dip inside a single slice *)
  let min_w = ref max_w in
  ignore
    (Tcpfo_obs.Event.Bus.subscribe
       (Tcpfo_obs.Obs.bus (World.obs world))
       (fun ~at:_ -> function
         | Tcpfo_obs.Event.Weight_shift { shard; weight; _ }
           when !victim = Some shard ->
           min_w := min !min_w weight
         | _ -> ()));
  (* drain connection: opened right after the failure is detected, while
     the victim shard's weight is decaying.  Both shards run the same
     service, so it expects the same reply wherever it pins. *)
  let drain = new_peer () and drain_started = ref false in
  (* shards see the client's own address: the dispatcher rewrites the
     destination only *)
  let conn name peer =
    let is p = snd p.remote = client_port peer in
    { name; peer; expected = ctx.reply; is }
  in
  {
    client;
    lan = front;
    xfer = back;
    kill =
      (fun () ->
        let name =
          Option.value ~default:"shard0"
            (Dispatch.pinned_shard disp ~client:(Host.addr client, main_port))
        in
        victim := Some name;
        let pool = List.assoc name pools in
        match sc.victim with
        | Primary -> Replicated.kill_primary pool
        | Secondary -> Replicated.kill_secondary pool
        | Nobody -> ());
    fresh_host =
      (fun () ->
        let h = spare ctx back ~addr:"10.0.0.100" () in
        Host.set_default_via_lan h ~gateway:(Ipaddr.of_string gw);
        World.warm_arp (h :: Topo.group_of topo (Option.get !victim));
        Topo.warm_dispatch_arp topo "disp" [ h ];
        Dispatch.arm_probe_responder h;
        h);
    reintegrate =
      (fun h ->
        Replicated.reintegrate (Option.get (victim_pool ())) ~secondary:h);
    rekill = (fun () -> Replicated.kill_primary (Option.get (victim_pool ())));
    watch =
      (fun emit ->
        List.iter
          (fun (name, pool) ->
            let pool_svc = Replicated.service_addr pool in
            Replicated.set_on_event pool (fun e ->
                if !victim = Some name then begin
                  (match e with
                  | Replicated.Primary_failure_detected
                  | Replicated.Secondary_failure_detected
                    when not !drain_started ->
                    drain_started := true;
                    after ctx (Time.ms 2) (fun () ->
                        connect_peer ctx drain client
                          ~remote:(svc, service_port) ~arm:false)
                  | _ -> ());
                  Option.iter emit (replicated_signal sc ~svc:pool_svc e)
                end))
          pools);
    conns =
      conn "connection" main
      :: (if sc.victim = Nobody then [] else [ conn "drain connection" drain ]);
    slice = Time.ms 10;
    end_state =
      (fun () ->
        (if sc.victim = Nobody then []
         else
           [ expect !drain_started "failure never detected (no drain opened)" ])
        @
        match (sc.victim, victim_pool ()) with
        | Nobody, _ ->
          List.map
            (fun (name, pool) ->
              expect
                (Replicated.status pool = `Normal)
                "spurious failover on %s: status left Normal" name)
            pools
        | _, None -> [ expect false "kill never resolved a victim shard" ]
        | _, Some p ->
          pair_end_state sc p
          @
          if sc.repair = Repair then
            [
              expect (victim_weight () = max_w)
                "victim shard never ramped back (weight %d)" (victim_weight ());
            ]
          else []);
    checks =
      (fun () ->
        let ctrs = Dispatch.counters disp in
        (match victim_pool () with
          | Some p when sc.repair <> No_repair ->
            [ transfer_failures_item (Replicated.transfer_failures p) ]
          | _ -> [])
        (* weight state machine: the victim shard provably drained and
           (unless repaired) stayed at the degraded floor; the sibling
           never moved *)
        @ (match !victim with
          | None -> []
          | Some n ->
            let w = Dispatch.weight disp in
            expect (!min_w < max_w) "victim shard %s never shed weight (min %d)"
              n !min_w
            :: (if sc.repair = Repair then []
                else
                  [
                    expect (w n <= max 1 (max_w / 4))
                      "unrepaired shard %s above the degraded floor (%d)" n
                      (w n);
                  ])
            @ List.filter_map
                (fun (name, _) ->
                  if name = n then None
                  else
                    Some
                      (expect (w name = max_w)
                         "sibling shard %s shed weight (%d)" name (w name)))
                pools)
        (* nothing refused (a sibling was always live), no cross-shard
           reply ever translated *)
        @ [
            expect (ctrs.Dispatch.refused = 0)
              "%d connection(s) refused by a drained fleet"
              ctrs.Dispatch.refused;
            expect
              (ctrs.Dispatch.isolation_drops = 0)
              "%d cross-shard reply(ies) dropped by isolation"
              ctrs.Dispatch.isolation_drops;
          ]);
  }

(* ------------------------------------------------------------------ *)

let run ?on_world sc =
  let world = World.create ~seed:sc.seed () in
  Option.iter (fun f -> f world) on_world;
  let ctx =
    {
      sc; world;
      timing_rng = Rng.create ~seed:((sc.seed * 1_000_003) lxor 0x50AC);
      reply = pattern ~tag:sc.seed sc.size;
      violations = ref []; hosts = []; kill = ignore; fin_armed = false;
      repaired = false; promoted = false; settled = false;
      rekilled = false; pins = [];
    }
  in
  let rig =
    if sc.fleet then fleet_rig ctx
    else
      match sc.role with
      | Chain3 -> chain_rig ctx
      | Server | Backend_client -> pool_rig ctx
  in
  ctx.kill <- rig.kill;
  let engine = World.engine world in
  let inj = Injector.create engine ~rng:(World.fresh_rng world) in
  schedule_chaos engine inj ~client:rig.client ~lan:rig.lan sc.chaos;
  let capture = capture_transfers world rig.xfer in
  (* the lossy-control-channel axis: a loss burst opening exactly when
     hot state transfers begin, under which every transfer must still
     complete *)
  let loss_burst () =
    if sc.xfer_loss > 0.0 then
      ignore
        (Engine.schedule engine ~delay:0 (fun () ->
             Injector.loss_burst inj rig.xfer ~p:sc.xfer_loss
               ~for_:(Time.ms 8)))
  in
  (* repair: once the kill is absorbed, bring up a fresh host and
     reintegrate it — hot state transfer re-replicates the live
     connections.  The instant those transfers settle (after a repair
     with [Repair_then_rekill], or a pool promotion) the CURRENT primary
     dies too: a connection opened before failure #1 must survive
     failure #2 byte-exactly. *)
  rig.watch (function
    | Ready ->
      if sc.repair <> No_repair && not ctx.repaired then begin
        ctx.repaired <- true;
        after ctx (Time.ms 1 + Rng.int ctx.timing_rng (Time.ms 4)) (fun () ->
            let h = rig.fresh_host () in
            loss_burst ();
            rig.reintegrate h)
      end
    | Promoted ->
      if not ctx.promoted then begin
        ctx.promoted <- true;
        loss_burst ()
      end
    | Settled ->
      if ctx.repaired || ctx.promoted then begin
        ctx.settled <- true;
        if (sc.repair = Repair_then_rekill || ctx.promoted) && not ctx.rekilled
        then begin
          ctx.rekilled <- true;
          after ctx
            (Time.us 200 + Rng.int ctx.timing_rng (Time.ms 2))
            rig.rekill
        end
      end
    | Pinned p -> ctx.pins <- p :: ctx.pins);
  (match (sc.victim, sc.phase) with
  | Nobody, _ | _, Fin -> ()
  | _, Handshake ->
    (* during the three-way handshake (~300 us in) *)
    after ctx (Time.us 50 + Rng.int ctx.timing_rng (Time.us 350)) rig.kill
  | _, Transfer ->
    let frac = 10 + Rng.int ctx.timing_rng 80 in
    after ctx (transfer_estimate sc.size * frac / 100) rig.kill
  | _, Idle ->
    (* well after the connection is over *)
    after ctx (transfer_estimate sc.size + Time.sec 2.0) rig.kill);
  let end_state () =
    (if sc.repair = Repair then
       [
         expect ctx.repaired "repair never triggered";
         expect ctx.settled "the repair's hot state transfers never settled";
       ]
     else [])
    @ (if sc.pool <> Pair then
         [ expect ctx.promoted "standby never promoted after the first kill" ]
       else [])
    @ (if sc.repair = Repair_then_rekill || sc.pool <> Pair then
         [ expect ctx.rekilled "second kill never triggered" ]
       else [])
    @ List.concat_map
        (fun c ->
          if lost ctx c then []
          else peer_items c.name c.peer ~expected:c.expected)
        rig.conns
    @ rig.end_state ()
  in
  (* run in slices; stop once the expected end state holds *)
  let deadline = Time.sec 60.0 in
  let rec drive () =
    if (not (List.for_all fst (end_state ()))) && World.now world < deadline
    then begin
      World.run world ~for_:rig.slice;
      drive ()
    end
  in
  drive ();
  let stranded = List.length (List.filter (fun p -> not p.early) ctx.pins) in
  let items =
    end_state ()
    @ List.filter_map
        (fun c ->
          if lost ctx c then None else Some (reset_item c.name c.peer))
        rig.conns
    @ rig.checks ()
    @ expect (stranded = 0) "%d connection(s) stranded solo after ESTABLISHED"
        stranded
      :: transfer_mss_items capture
  in
  {
    scenario = sc;
    violations =
      List.rev !(ctx.violations)
      @ List.filter_map
          (fun (ok, why) -> if ok then None else Some why)
          items;
    metrics = Registry.to_json (World.metrics world);
  }

(* [json] without its ["engine.*":N] counters.  They count the event
   queue's own work (DESIGN 7.11), so a change that schedules fewer
   events for the same simulation moves only them. *)
let without_engine_counters json =
  let key = "\"engine." and n = String.length json in
  let k = String.length key in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + k <= n && String.sub json !i k = key then begin
      while !i < n && json.[!i] <> ',' && json.[!i] <> '}' do incr i done;
      if !i < n && json.[!i] = ',' then incr i
    end
    else begin
      Buffer.add_char b json.[!i];
      incr i
    end
  done;
  Buffer.contents b

let fingerprint outcomes =
  let b = Buffer.create 4096 in
  List.iter
    (fun o ->
      Buffer.add_string b (describe o.scenario);
      Buffer.add_char b '\n';
      List.iter
        (fun v ->
          Buffer.add_string b v;
          Buffer.add_char b '\n')
        o.violations;
      Buffer.add_string b (without_engine_counters o.metrics);
      Buffer.add_char b '\n')
    outcomes;
  Digest.to_hex (Digest.string (Buffer.contents b))
