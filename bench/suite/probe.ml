(* What one pass of a workload measured.

   A pass builds one simulated world per sub-seed, runs it, and leaves
   everything the benchmark reports in a [Probe.t]:

   - wall-clock: time spent setting worlds up and time spent inside
     [World.run], the latter also scaled to a reference host speed;
   - client-visible samples in simulated milliseconds, plus attempted and
     failed connections and the application bytes delivered;
   - per-layer sums read from outside the program after each world ends
     (registry, [Host.cpu], [Engine] accessors, sampled once per run
     slice);
   - in a traced pass only: spans, callback self time, control-plane
     instants from the event bus, and the packet and snapshot replays.

   Nothing here schedules an event or touches a host, so a traced pass
   simulates exactly what an untraced one does. *)

module Time = Tcpfo_sim.Time
module Engine = Tcpfo_sim.Engine
module Cpu = Tcpfo_sim.Cpu
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Registry = Tcpfo_obs.Registry
module Event = Tcpfo_obs.Event
module Obs = Tcpfo_obs.Obs
module Capture = Tcpfo_net.Capture
module Eth_frame = Tcpfo_packet.Eth_frame
module Ipv4_packet = Tcpfo_packet.Ipv4_packet
module Wire = Tcpfo_packet.Wire
module Checksum = Tcpfo_util.Checksum
module Snapshot = Tcpfo_statex.Snapshot
module Replicated = Tcpfo_core.Replicated

let wall = Unix.gettimeofday
let ms_of_ns ns = float_of_int ns /. 1e6

type span = {
  id : int;
  name : string;
  parent : int; (* -1 at the root *)
  t0 : float;
  t1 : float;
  sim_ns : int; (* simulated time when the span opened *)
}

(* A kill and the instant the pool recovered from it (takeover complete
   for a primary, failure detected and degraded for a secondary). *)
type kill = { at : Time.t; mutable recovered : Time.t }

(* Per-connection progress clock for the stall metric: [wait_from] is
   when the client started waiting (the due time of work issued while
   idle, or its last progress while work stays outstanding); -1 when
   idle. *)
type conn = { mutable wait_from : Time.t; mutable next_kill : int }

type t = {
  traced : bool;
  mutable setup_s : float;
  mutable run_s : float;
  mutable scaled_run_s : float; (* run_s, scaled to the reference host *)
  mutable open_run_s : float; (* run_s since the last speed sample *)
  mutable last_ref : float; (* the last speed sample, 0 before the first *)
  mutable last_ref_at : float;
  mutable events : int;
  mutable attempted : int;
  mutable failed : int;
  mutable why_failed : string list;
  mutable app_bytes : int;
  mutable load_ns : int; (* simulated time the offered load spanned *)
  mutable connect : float list;
  mutable request : float list;
  mutable stall : float list;
  mutable reint : float list;
  mutable capacity : float;
  mutable detect : float list;
  mutable takeover : float list;
  sums : (string, float) Hashtbl.t;
  mutable fingerprints : string list;
  (* current world *)
  mutable world : World.t option;
  mutable kills : kill array;
  mutable n_kills : int;
  mutable backlog_cpus : Cpu.t list;
  mutable conn_hosts : Host.t list;
  mutable backlog : float list;
  mutable capture : Capture.t option;
  (* tracing *)
  mutable spans : span list;
  mutable open_spans : int list;
  mutable next_span : int;
  mutable cb_depth : int;
  mutable cb_t0 : float;
  mutable cb_s : float;
  mutable lib_depth : int;
  mutable lib_s : float;
  mutable instants : (int * string) list;
}

let create ~traced =
  {
    traced; setup_s = 0.; run_s = 0.; scaled_run_s = 0.; open_run_s = 0.;
    last_ref = 0.; last_ref_at = 0.; events = 0; attempted = 0; failed = 0;
    why_failed = []; app_bytes = 0; load_ns = 0; connect = []; request = [];
    stall = []; reint = []; capacity = 0.; detect = []; takeover = [];
    sums = Hashtbl.create 64; fingerprints = []; world = None;
    kills = Array.make 64 { at = 0; recovered = max_int }; n_kills = 0;
    backlog_cpus = []; conn_hosts = []; backlog = []; capture = None;
    spans = []; open_spans = []; next_span = 0; cb_depth = 0; cb_t0 = 0.;
    cb_s = 0.; lib_depth = 0; lib_s = 0.; instants = [];
  }

let add p name v =
  Hashtbl.replace p.sums name
    (v +. Option.value ~default:0. (Hashtbl.find_opt p.sums name))

let peak p name v =
  match Hashtbl.find_opt p.sums name with
  | Some old when old >= v -> ()
  | _ -> Hashtbl.replace p.sums name v

let get p name = Option.value ~default:0. (Hashtbl.find_opt p.sums name)

let world p =
  match p.world with Some w -> w | None -> invalid_arg "Probe: no world"

let now p = World.now (world p)

let fail p why =
  p.failed <- p.failed + 1;
  if List.length p.why_failed < 5 then p.why_failed <- why :: p.why_failed

(* --------------------------------------------------------------- *)
(* Spans (traced passes only) *)

let span p name f =
  if not p.traced then f ()
  else begin
    let id = p.next_span in
    p.next_span <- id + 1;
    let parent = match p.open_spans with x :: _ -> x | [] -> -1 in
    p.open_spans <- id :: p.open_spans;
    let sim_ns = match p.world with Some w -> World.now w | None -> 0 in
    let t0 = wall () in
    let r = f () in
    p.spans <- { id; name; parent; t0; t1 = wall (); sim_ns } :: p.spans;
    p.open_spans <- List.tl p.open_spans;
    r
  end

let span_total p name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0. p.spans

(* Self time of the benchmark's own Tcb callbacks: [cb] wraps a
   callback, [lib] wraps a call the callback makes into the program, and
   [apps.callback_s] is the first minus the second, both counted at the
   outermost level only. *)
let cb p f =
  if not p.traced then f
  else fun x ->
    if p.cb_depth = 0 then p.cb_t0 <- wall ();
    p.cb_depth <- p.cb_depth + 1;
    f x;
    p.cb_depth <- p.cb_depth - 1;
    if p.cb_depth = 0 then p.cb_s <- p.cb_s +. (wall () -. p.cb_t0)

let lib p f =
  if (not p.traced) || p.cb_depth = 0 || p.lib_depth > 0 then f ()
  else begin
    let t0 = wall () in
    p.lib_depth <- 1;
    let r = f () in
    p.lib_depth <- 0;
    p.lib_s <- p.lib_s +. (wall () -. t0);
    r
  end

(* --------------------------------------------------------------- *)
(* Worlds *)

let setup p f =
  let t0 = wall () in
  let r = span p "setup" f in
  p.setup_s <- p.setup_s +. (wall () -. t0);
  r

let capture_cap = 4096

let start_world p w =
  p.world <- Some w;
  p.n_kills <- 0;
  p.backlog_cpus <- [];
  p.conn_hosts <- [];
  if p.traced then
    ignore
      (Event.Bus.subscribe (Obs.bus (World.obs w)) (fun ~at ev ->
           match ev with
           | Event.Failover _ | Event.Arp_takeover _ | Event.Weight_shift _ ->
             p.instants <-
               (at, Format.asprintf "%a" Event.pp ev) :: p.instants
           | _ -> ()))

(* Hosts whose CPU backlog is sampled, and hosts whose live connections
   are counted, once per run slice. *)
let watch p ~backlog ~conns =
  p.backlog_cpus <- List.map Host.cpu backlog;
  p.conn_hosts <- conns

(* Traced passes record the first [capture_cap] TCP frames on [medium]
   (the capture takes no bandwidth, no CPU and no registry names) to
   replay the packet codecs over them when the world ends. *)
let capture p medium =
  if p.traced then begin
    let kept = ref 0 in
    let filter (f : Eth_frame.t) =
      match f.payload with
      | Eth_frame.Ip { payload = Ipv4_packet.Tcp _; _ }
        when !kept < capture_cap ->
        incr kept;
        true
      | _ -> false
    in
    p.capture <-
      Some (Capture.start (World.engine (world p)) medium ~filter ())
  end

let sample p =
  let w = world p in
  let engine = World.engine w in
  peak p "sim.pending_peak" (float_of_int (Engine.pending engine));
  let now = World.now w in
  (match p.backlog_cpus with
  | [] -> ()
  | cpus ->
    let b =
      List.fold_left (fun m c -> max m (Cpu.busy_until c - now)) 0 cpus
    in
    p.backlog <- ms_of_ns b :: p.backlog);
  let live =
    List.fold_left
      (fun n h ->
        if Host.alive h then n + Stack.connection_count (Host.tcp h) else n)
      0 p.conn_hosts
  in
  peak p "tcp.connections_peak" (float_of_int live)

(* Host speed.  Shared hosts slow down by up to 2x, for seconds at a
   time, which no number of passes averages away.  A fixed reference
   loop, here where no change to lib/ can speed it up, runs at the start
   and end of every pass and after every [speed_every] of wall time
   inside [World.run]; the run time between two samples is scaled by
   [reference_s] over their mean.  Wall-clock metrics then read as
   seconds on a host that runs the loop in [reference_s], its time on
   the quiet 2-core host the benchmark was calibrated on. *)
let reference_s = 0.02
let speed_every = 0.5

let reference () =
  let t0 = wall () in
  let tbl = Hashtbl.create 1024 and acc = ref [] in
  for i = 0 to 100_000 do
    Hashtbl.replace tbl (i * 7919 mod 65536) i;
    if i land 3 = 0 then acc := float_of_int i :: !acc
  done;
  let a = Array.of_list !acc in
  Array.sort compare a;
  ignore (Sys.opaque_identity (tbl, a));
  wall () -. t0

let speed_sample p =
  let r = reference () in
  if p.last_ref > 0. then
    p.scaled_run_s <-
      p.scaled_run_s
      +. (p.open_run_s *. reference_s /. ((p.last_ref +. r) /. 2.));
  p.open_run_s <- 0.;
  p.last_ref <- r;
  p.last_ref_at <- wall ()

let run p ~for_ =
  let w = world p in
  let t0 = wall () in
  World.run w ~for_;
  let t1 = wall () in
  p.run_s <- p.run_s +. (t1 -. t0);
  p.open_run_s <- p.open_run_s +. (t1 -. t0);
  if t1 -. p.last_ref_at > speed_every then speed_sample p;
  sample p

(* Run [slice] at a time until [until ()] holds or [cap] of simulated
   time has passed; [each] runs between slices. *)
let run_until p ?(slice = Time.ms 5) ?(each = ignore) ~cap until =
  let stop = now p + cap in
  while (not (until ())) && now p < stop do
    run p ~for_:slice;
    each ()
  done

let phase p name f = span p ("wall." ^ name ^ "_s") f

(* --------------------------------------------------------------- *)
(* Client-visible samples *)

let kill p =
  if p.n_kills = Array.length p.kills then
    invalid_arg "Probe.kill: too many kills";
  p.kills.(p.n_kills) <- { at = now p; recovered = max_int };
  p.n_kills <- p.n_kills + 1

let recovered p =
  let rec first i =
    if i < p.n_kills then
      if p.kills.(i).recovered = max_int then
        p.kills.(i).recovered <- now p
      else first (i + 1)
  in
  first 0

let await c ~at = if c.wait_from < 0 then c.wait_from <- at

(* connect and request latencies, from the instant the work was due *)
let connected p ~due = p.connect <- ms_of_ns (now p - due) :: p.connect
let replied p ~due = p.request <- ms_of_ns (now p - due) :: p.request

(* Progress seen by the client.  The gap it closes is a stall sample for
   every kill that happened inside the gap, or whose outage the gap
   started in: the first gap per connection and kill that ends after the
   kill and began before the pool recovered. *)
let progress p c ~idle =
  if c.wait_from >= 0 then begin
    let t = now p in
    while c.next_kill < p.n_kills && p.kills.(c.next_kill).at < t do
      if c.wait_from < p.kills.(c.next_kill).recovered then
        p.stall <- ms_of_ns (t - c.wait_from) :: p.stall;
      c.next_kill <- c.next_kill + 1
    done;
    c.wait_from <- (if idle then -1 else t)
  end

(* A connection's progress clock; one opened after a kill's outage owes
   that kill no sample. *)
let conn p =
  let c = { wait_from = -1; next_kill = 0 } in
  let t = now p in
  while c.next_kill < p.n_kills && p.kills.(c.next_kill).recovered <= t do
    c.next_kill <- c.next_kill + 1
  done;
  c

(* --------------------------------------------------------------- *)
(* End of a world: read every layer from outside *)

(* Registry counters summed over every host (suffix match) or read by
   their world-absolute name. *)
let host_counters =
  (".arp.misses", "ip.arp_misses")
  :: List.map
       (fun n -> ("." ^ n, n))
       [ "ip.rx"; "ip.tx"; "ip.forwarded"; "tcp.retransmits";
         "tcp.rto_backoffs"; "tcp.rst_sent"; "tcp.demux_hits";
         "tcp.demux_misses"; "heartbeat.sent" ]

let world_counters =
  [ ("medium.frames", "net.frames"); ("medium.bytes", "net.bytes");
    ("medium.collisions", "net.collisions") ]
  @ List.map
      (fun n -> (n, n))
      [ "bridge.primary.emitted"; "bridge.primary.empty_acks";
        "bridge.primary.merged_bytes"; "bridge.secondary.diverted";
        "bridge.secondary.held_segments"; "statex.transfer_bytes";
        "statex.accepts"; "statex.chunks_sent"; "statex.chunk_retransmits";
        "statex.pace_wait_us"; "statex.timeouts"; "statex.isolated_conns" ]

(* The final registry dump minus the backend-structural [engine.*]
   lines, hashed: the identity of everything the world simulated. *)
let fingerprint reg =
  String.split_on_char '\n' (Registry.dump reg)
  |> List.filter (fun l -> not (String.starts_with ~prefix:"engine." l))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let replay_packets p =
  match p.capture with
  | None -> ()
  | Some cap ->
    Capture.stop cap;
    p.capture <- None;
    let frames =
      List.filter_map
        (fun (r : Capture.record) ->
          match r.frame.payload with
          | Eth_frame.Ip { src; dst; payload = Ipv4_packet.Tcp seg; _ } ->
            Some (src, dst, seg, Eth_frame.wire_length r.frame)
          | _ -> None)
        (Capture.records cap)
      |> Array.of_list
    in
    let n = Array.length frames in
    if n > 0 then begin
      (* repeat each codec over the captured frames until it has run for
         at least 20 ms, so the per-frame time is not one clock tick *)
      let timed f =
        let reps = ref 0 and t0 = wall () in
        while !reps = 0 || wall () -. t0 < 0.02 do
          Array.iteri f frames;
          incr reps
        done;
        ((wall () -. t0) *. 1e9, !reps * n)
      in
      let encoded = Array.make n Bytes.empty in
      let enc_ns, enc_n =
        timed (fun i (src, dst, seg, _) ->
            encoded.(i) <- Wire.encode_tcp ~src_ip:src ~dst_ip:dst seg)
      in
      let dec_ns, dec_n =
        timed (fun i (src, dst, _, _) ->
            ignore (Wire.decode_tcp ~src_ip:src ~dst_ip:dst encoded.(i)))
      in
      let ck_ns, ck_n =
        timed (fun i _ -> ignore (Checksum.of_bytes encoded.(i)))
      in
      add p "packet.encode_ns" enc_ns;
      add p "packet.encode_n" (float_of_int enc_n);
      add p "packet.decode_ns" dec_ns;
      add p "packet.decode_n" (float_of_int dec_n);
      add p "packet.checksum_ns" ck_ns;
      add p "packet.checksum_n" (float_of_int ck_n);
      Array.iter
        (fun (_, _, _, len) -> add p "packet.frame_bytes" (float_of_int len))
        frames;
      add p "packet.frames" (float_of_int n)
    end

(* Traced passes only: encode and decode a snapshot of each given live
   server TCB, as hot state transfer would at this instant. *)
let snapshot_probe p tcbs =
  if p.traced then
    List.iter
      (fun tcb ->
        let conn =
          { Snapshot.tcb = Tcb.snapshot tcb; role = `Server; delta = 0;
            next_wire_seq = Tcb.snd_nxt tcb; held_segments = 0;
            solo = false }
        in
        let t0 = wall () in
        let s = Snapshot.encode conn in
        let t1 = wall () in
        let ok = Result.is_ok (Snapshot.decode s) in
        let t2 = wall () in
        if not ok then fail p "snapshot did not decode";
        add p "statex.encode_s" (t1 -. t0);
        add p "statex.decode_s" (t2 -. t1);
        add p "statex.snapshots" 1.)
      tcbs

(* --------------------------------------------------------------- *)
(* Pools: failover timings, stall recoveries and reintegrations heard
   through [Replicated.add_on_event] *)

type pool = { repl : Replicated.t; mutable reint_from : Time.t }

let watch_pool p repl =
  let pool = { repl; reint_from = -1 } in
  let detected = ref 0 in
  let detect () =
    detected := now p;
    if p.n_kills = 0 then fail p "failure detected without a kill"
    else
      p.detect <- ms_of_ns (now p - p.kills.(p.n_kills - 1).at) :: p.detect
  in
  Replicated.add_on_event repl (function
    | Replicated.Primary_failure_detected -> detect ()
    | Replicated.Secondary_failure_detected ->
      detect ();
      recovered p
    | Replicated.Takeover_complete ->
      p.takeover <- ms_of_ns (now p - !detected) :: p.takeover;
      recovered p
    | Replicated.Transfers_complete _ when pool.reint_from >= 0 ->
      p.reint <- ms_of_ns (now p - pool.reint_from) :: p.reint;
      pool.reint_from <- -1
    | _ -> ());
  pool

let live_conns hosts =
  List.concat_map
    (fun h ->
      if Host.alive h then
        List.filter
          (fun c ->
            match Tcb.state c with
            | Tcb.Closed | Tcb.Time_wait -> false
            | _ -> true)
          (Stack.connections (Host.tcp h))
      else [])
    hosts

(* Reintegrate [host] into the pool; [false] while a takeover is still in
   flight (the caller retries on a later slice). *)
let reintegrate p pool host =
  let live = live_conns (Replicated.replicas pool.repl) in
  pool.reint_from <- now p;
  match Replicated.reintegrate pool.repl ~secondary:host with
  | () ->
    snapshot_probe p live;
    true
  | exception Invalid_argument _ ->
    pool.reint_from <- -1;
    false

(* [roles]: hosts whose CPU utilization is reported under
   [sim.cpu_util.<role>] (the busiest host of each list). *)
let end_world p ~roles =
  let w = world p in
  let reg = World.metrics w in
  let span_ns = max 1 (World.now w) in
  p.events <- p.events + Engine.processed (World.engine w);
  List.iter
    (fun (role, hosts) ->
      let util =
        List.fold_left
          (fun m h ->
            max m
              (float_of_int (Cpu.total_busy (Host.cpu h))
              /. float_of_int span_ns))
          0. hosts
      in
      add p ("sim.cpu_util." ^ role) util)
    roles;
  add p "worlds" 1.;
  List.iter
    (fun name ->
      List.iter
        (fun (suf, metric) ->
          if String.ends_with ~suffix:suf name then
            add p metric (float_of_int (Registry.counter_value reg name)))
        host_counters;
      match Registry.histogram_summary reg name with
      | Some s -> add p "obs.histogram_samples" (float_of_int s.count)
      | None -> ())
    (Registry.names reg);
  List.iter
    (fun (name, metric) ->
      add p metric (float_of_int (Registry.counter_value reg name)))
    world_counters;
  (match Registry.histogram_summary reg "bridge.primary.merge_latency_us" with
  | Some s ->
    let n = float_of_int s.count in
    add p "bridge.merge_n" n;
    add p "bridge.merge_p50" (s.median *. n);
    add p "bridge.merge_p95" (s.p95 *. n)
  | None -> ());
  let t0 = wall () in
  ignore (Registry.to_json reg);
  add p "obs.snapshot_s" (wall () -. t0);
  replay_packets p;
  p.fingerprints <- fingerprint reg :: p.fingerprints;
  (* drop every handle into the world, so passes do not pile up *)
  p.world <- None;
  p.backlog_cpus <- [];
  p.conn_hosts <- []
