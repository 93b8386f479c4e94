(* Shared plumbing for the paper-reproduction experiments (§9).

   Every experiment builds one (or many) fresh simulated worlds, runs a
   workload against either an unreplicated server ("standard TCP") or the
   replicated pair ("TCP failover"), and reports the series the paper
   plots.  Seeds differ per trial so medians are over genuinely different
   runs (ISNs, ports, collision backoffs). *)

module Engine = Tcpfo_sim.Engine
module Time = Tcpfo_sim.Time
module Clock = Tcpfo_sim.Clock
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Topo = Tcpfo_host.Topo
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Replicated = Tcpfo_core.Replicated
module Failover_config = Tcpfo_core.Failover_config
module Stats = Tcpfo_util.Stats
module Ipaddr = Tcpfo_packet.Ipaddr

type mode = Std | Failover

let mode_name = function Std -> "standard TCP" | Failover -> "TCP failover"

(* The testbed CPU model, calibrated in exp_setup so that standard-TCP
   connection establishment lands near the paper's ~294 us median. *)
let paper_profile =
  { Host.tx_cost = Time.us 52; rx_cost = Time.us 72; jitter_frac = 0.25;
    hiccup_prob = 0.015 }

(* A server-class host an order of magnitude faster, and a 1 Gb/s
   segment, for the experiments that run thousands of connections: the
   paper's CPU (72 us per received datagram, ~14k datagrams/s) would
   saturate, and its queueing delay would blow the 40 ms heartbeat
   deadline.  Collisions stay on. *)
let server_profile =
  { Host.tx_cost = Time.us 5; rx_cost = Time.us 7; jitter_frac = 0.25;
    hiccup_prob = 0.015 }

let gigabit_lan =
  { Tcpfo_net.Medium.default_config with bandwidth_bps = 1_000_000_000 }

let bench_config =
  Failover_config.make ~service_ports:[ 21; 20; 5000; 5001; 5002; 5003 ]
    ~bridge_cost:(Time.us 55) ()

type env = {
  world : World.t;
  client : Host.t;
  service : Ipaddr.t;
  install : port:int -> (Tcb.t -> unit) -> unit;
  repl : Replicated.t option;
  servers : Host.t list;
}

(* --------------------------------------------------------------- *)
(* Parallel trial fan-out.  Every experiment builds one fully
   independent world per trial (own engine, RNG, hosts, registry), so
   trials are embarrassingly parallel: {!map_trials} fans them out over
   [!jobs] OCaml domains via {!Tcpfo_util.Domain_pool} and gathers the
   results by trial index, making the output byte-identical to the
   serial [--jobs 1] path.

   The only cross-trial state the harness itself kept was the
   "last world" used for metrics snapshots; it now lives in
   domain-local storage (each worker records the worlds it builds,
   no cross-domain writes) and {!map_trials} re-publishes the
   highest-index trial's world to the calling domain, which is exactly
   the world a serial run would have ended on.  Only that one world is
   retained across the sweep, so memory does not grow with the trial
   count. *)

let jobs = ref 1

(* Deterministic total-event line, one per experiment run: CI smoke jobs
   gate on these (and on the metrics snapshots) instead of wall-clock,
   which varies with the runner. *)
let events_line ~exp total =
  Printf.printf "[events-total:%s] {\"events\":%d}\n%!" exp total

(* Peak RSS of this process so far (VmHWM, in kB; 0 where
   /proc/self/status is unreadable).  Wall-clock-class: printed on
   timing lines only, never in a deterministic summary. *)
let peak_rss_kb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
          close_in ic;
          int_of_string
            (String.trim
               (String.sub line 6 (String.length line - 6 - 3)))
        end
        else scan ()
      | exception End_of_file ->
        close_in ic;
        0
    in
    scan ()
  with Sys_error _ -> 0

let dls_last_world : World.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let note_world world = Domain.DLS.get dls_last_world := Some world
let last_world () = !(Domain.DLS.get dls_last_world)

let map_trials n f =
  (* the highest-index world noted so far: a long sweep keeps one world
     alive, not one per trial *)
  let last = Atomic.make (-1, None) in
  let rec publish i w =
    let ((j, _) as cur) = Atomic.get last in
    if i > j && not (Atomic.compare_and_set last cur (i, w)) then publish i w
  in
  let results =
    Tcpfo_util.Domain_pool.map ~jobs:!jobs n (fun i ->
        let slot = Domain.DLS.get dls_last_world in
        slot := None;
        let r = f i in
        (match !slot with Some _ as w -> publish i w | None -> ());
        slot := None;
        r)
  in
  (match snd (Atomic.get last) with Some w -> note_world w | None -> ());
  results

let run_tasks tasks =
  let arr = Array.of_list tasks in
  map_trials (Array.length arr) (fun i -> arr.(i) ())

(* --------------------------------------------------------------- *)
(* Metrics snapshots.  Each experiment calls {!dump_metrics} once after
   its last trial: the final world's registry is rendered to JSON,
   either into [<metrics_dir>/<exp>.metrics.json] or as a
   ["[metrics:<exp>] {...}"] stdout line.  Registry serialization is
   sorted and format-stable, so two runs with the same seed produce
   byte-identical snapshots. *)

let metrics_dir : string option ref = ref None

let dump_metrics ~exp =
  Option.iter
    (fun world ->
      let json = Tcpfo_obs.Registry.to_json (World.metrics world) in
      match !metrics_dir with
      | Some dir ->
        let path = Filename.concat dir (exp ^ ".metrics.json") in
        let oc = open_out path in
        output_string oc json;
        output_char oc '\n';
        close_out oc;
        Printf.printf "[metrics:%s -> %s]\n%!" exp path
      | None -> Printf.printf "[metrics:%s] %s\n%!" exp json)
    (last_world ())

let make_env ?(seed = 1) mode =
  let world = World.create ~seed () in
  note_world world;
  (* the benchmark testbed as data; declaration order mirrors the old
     hand-wired construction so seeded runs stay byte-identical *)
  let spec =
    Topo.segment "lan"
    :: Topo.host ~profile:paper_profile ~addr:"10.0.0.10" ~seg:"lan" "client"
    ::
    (match mode with
    | Std ->
      [ Topo.host ~profile:paper_profile ~addr:"10.0.0.1" ~seg:"lan" "server" ]
    | Failover ->
      [
        Topo.host ~profile:paper_profile ~addr:"10.0.0.1" ~seg:"lan" "primary";
        Topo.host ~profile:paper_profile ~addr:"10.0.0.2" ~seg:"lan"
          "secondary";
        Topo.group ~members:[ "primary"; "secondary" ] "pool";
      ])
  in
  let topo = Topo.build world spec in
  let client = Topo.host_of topo "client" in
  match mode with
  | Std ->
    let server = Topo.host_of topo "server" in
    {
      world;
      client;
      service = Host.addr server;
      install = (fun ~port handler -> Stack.listen (Host.tcp server) ~port
                    ~on_accept:handler);
      repl = None;
      servers = [ server ];
    }
  | Failover ->
    let repl =
      Replicated.create_pool
        ~replicas:(Topo.group_of topo "pool")
        ~config:bench_config ()
    in
    {
      world;
      client;
      service = Replicated.service_addr repl;
      install =
        (fun ~port handler ->
          Replicated.listen repl ~port ~on_accept:(fun ~role:_ tcb ->
              handler tcb));
      repl = Some repl;
      servers = Replicated.replicas repl;
    }

let now env = World.now env.world
let run env ~for_ = World.run env.world ~for_

(* --------------------------------------------------------------- *)
(* The application-level send() model (paper §9, Figure 3): a write
   loop in 8 KB chunks, each chunk costing a syscall plus a per-byte
   copy; "send returns when the application has passed the last byte
   to the stack", i.e. into the 64 KB socket buffer. *)

let syscall_cost = Time.us 22
let copy_cost_per_byte_ns = 11

let timed_send clock (tcb : Tcb.t) ~size ~on_buffered =
  let chunk_size = 8192 in
  let payload = String.make chunk_size 's' in
  let rec write pos =
    if pos >= size then on_buffered ()
    else begin
      let want = min chunk_size (size - pos) in
      let cost = syscall_cost + (want * copy_cost_per_byte_ns) in
      ignore
        (clock.Clock.schedule cost (fun () ->
             let chunk =
               if want = chunk_size then payload else String.sub payload 0 want
             in
             let n = Tcb.send tcb chunk in
             if n < want then begin
               (* buffer full: resume on drain, re-submitting the rest *)
               Tcb.set_on_drain tcb (fun () -> write (pos + n))
             end
             else write (pos + n)))
    end
  in
  write 0

(* --------------------------------------------------------------- *)
(* Formatting helpers                                               *)

let print_header title =
  Printf.printf "\n=== %s ===\n%!" title

let kb_per_s ~bytes ~ns =
  if ns <= 0 then infinity
  else float_of_int bytes /. 1024.0 /. (float_of_int ns /. 1e9)

let pp_time_us ns = Printf.sprintf "%.1f" (float_of_int ns /. 1e3)

let median_ns samples = int_of_float (Stats.median (List.map float_of_int samples))
let max_ns samples = List.fold_left max 0 samples

(* Human size label: "64B", "32K", "1M" *)
let size_label n =
  if n >= 1 lsl 20 && n mod (1 lsl 20) = 0 then
    Printf.sprintf "%dM" (n lsr 20)
  else if n >= 1024 && n mod 1024 = 0 then Printf.sprintf "%dK" (n lsr 10)
  else Printf.sprintf "%dB" n

let fig34_sizes =
  [ 64; 256; 1024; 4096; 16384; 32768; 65536; 131072; 262144; 524288;
    1048576 ]
