(* Benchmark runner: one workload per process.

     suite.exe --workload NAME --seed N --seconds S --trace 0|1
               [--trace-out DIR]
     suite.exe --smoke BENCHMARK.json

   A run makes one warm-up pass, then timed passes until [--seconds] of
   wall time have gone by since it started (at least one).  Every pass
   builds the same worlds from the seed, so its simulated results must
   repeat exactly; wall times are medians over the timed passes.  With
   [--trace 1] timed passes alternate untraced and traced, the traced
   ones must simulate exactly what the untraced ones did, and the
   per-layer metrics are printed instead of the end-to-end ones.  The
   last line of stdout is the JSON result. *)

let workloads =
  [
    ("rr-10k", W_rr.pass);
    ("bulk-failover", W_bulk.pass);
    ("upload-reintegrate", W_upload.pass);
    ("fleet-churn", W_fleet.pass);
  ]

(* name, unit: what the runner prints, in BENCHMARK.json's order *)
let end_to_end =
  [
    ("wall_s", "s"); ("setup_s", "s"); ("peak_rss_mb", "MB");
    ("connect_ms.p50", "ms"); ("connect_ms.p99", "ms");
    ("request_ms.p50", "ms"); ("request_ms.p99", "ms");
    ("goodput_mbps", "Mb/s");
  ]

let per_layer =
  [
    ("sim.events", "count"); ("sim.events_per_wall_s", "1/s");
    ("sim.pending_peak", "count"); ("sim.cpu_util.primary", "ratio");
    ("sim.cpu_util.secondary", "ratio"); ("sim.cpu_util.dispatcher", "ratio");
    ("sim.cpu_util.shard_max", "ratio");
    ("sim.cpu_backlog_ms.p99.primary", "ms"); ("net.frames", "count");
    ("net.bytes", "B"); ("net.collisions", "count");
    ("net.wire_bytes_per_app_byte", "ratio"); ("ip.rx", "count");
    ("ip.tx", "count"); ("ip.forwarded", "count"); ("ip.arp_misses", "count");
    ("tcp.retransmits", "count"); ("tcp.rto_backoffs", "count");
    ("tcp.rst_sent", "count"); ("tcp.demux_hits", "count");
    ("tcp.demux_misses", "count"); ("tcp.connections_peak", "count");
    ("bridge.primary.emitted", "count");
    ("bridge.primary.empty_acks", "count");
    ("bridge.primary.merged_bytes", "B");
    ("bridge.secondary.diverted", "count");
    ("bridge.secondary.held_segments", "count");
    ("bridge.merge_latency_us.p50", "us"); ("bridge.merge_latency_us.p95", "us");
    ("failover.detect_ms", "ms"); ("failover.takeover_ms", "ms");
    ("heartbeat.sent", "count"); ("statex.transfer_bytes_per_conn", "B");
    ("statex.chunks_sent", "count"); ("statex.chunk_retransmits", "count");
    ("statex.chunk_useful_ratio", "ratio"); ("statex.pace_wait_us", "us");
    ("statex.timeouts", "count"); ("statex.isolated_conns", "count");
    ("dispatch.routed", "count"); ("dispatch.drained", "count");
    ("dispatch.refused", "count"); ("dispatch.probes_sent", "count");
    ("dispatch.shift_transitions", "count");
    ("dispatch.isolation_drops", "count"); ("obs.histogram_samples", "count");
    ("obs.snapshot_ms", "ms"); ("gc.minor_words_per_event", "words");
    ("gc.major_collections", "count"); ("gc.top_heap_mb", "MB");
    ("host.topo_build_s", "s"); ("host.pool_create_s", "s");
    ("wall.open_s", "s"); ("wall.steady_s", "s"); ("wall.failover_s", "s");
    ("wall.reintegrate_s", "s"); ("apps.callback_s", "s");
    ("statex.encode_us_per_conn", "us"); ("statex.decode_us_per_conn", "us");
    ("packet.decode_ns_per_frame", "ns"); ("packet.encode_ns_per_frame", "ns");
    ("packet.checksum_ns_per_frame", "ns"); ("packet.mean_frame_bytes", "B");
    ("trace.overhead", "ratio"); ("trace.control_events", "count");
    ("client.capacity_rps", "1/s"); ("client.stall_ms.p50", "ms");
    ("client.stall_ms.p99", "ms"); ("client.reintegration_ms", "ms");
  ]

let median xs = Testbed.percentile 50. xs
let ratio a b = if b > 0. then a /. b else 0.

(* --------------------------------------------------------------- *)
(* One pass *)

type pass = {
  probe : Probe.t;
  minor_words : float;
  major : int;
  sim : string; (* digest of everything simulated *)
}

let run_pass name ~seed ~smoke ~traced =
  let pass = List.assoc name workloads in
  Gc.compact ();
  let p = Probe.create ~traced in
  Probe.speed_sample p;
  let g0 = Gc.quick_stat () in
  pass p ~seed ~smoke;
  let g1 = Gc.quick_stat () in
  Probe.speed_sample p;
  let sim =
    let b = Buffer.create 4096 in
    List.iter (Buffer.add_string b) p.fingerprints;
    Printf.bprintf b "|%d|%d|%d|%d|%d|%h|" p.attempted p.failed p.app_bytes
      p.load_ns p.events p.capacity;
    List.iter
      (List.iter (Printf.bprintf b "%h,"))
      [ p.connect; p.request; p.stall; p.reint; p.detect; p.takeover ];
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  {
    probe = p;
    minor_words = g1.minor_words -. g0.minor_words;
    major = g1.major_collections - g0.major_collections;
    sim;
  }

(* Simulated results must repeat exactly in every pass, traced or not. *)
let identical passes =
  match passes with
  | [] -> true
  | x :: rest -> List.for_all (fun y -> y.sim = x.sim) rest

(* --------------------------------------------------------------- *)
(* Metrics *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let run_s x = x.probe.Probe.scaled_run_s

(* setup is scaled by the host speed of the pass it belongs to *)
let setup_s x =
  x.probe.Probe.setup_s *. ratio x.probe.scaled_run_s x.probe.run_s

let goodput (p : Probe.t) =
  ratio (float_of_int p.app_bytes *. 8. /. 1e6) (float_of_int p.load_ns /. 1e9)

(* [rss_mb]: the process's peak RSS once its warm-up pass had run, the
   figure of one pass whatever the number of passes; [passes]: the timed
   passes *)
let end_to_end_values ~rss_mb passes =
  let p = (List.hd passes).probe in
  [
    ("wall_s", median (List.map run_s passes));
    ("setup_s", median (List.map setup_s passes));
    ("peak_rss_mb", rss_mb);
    ("connect_ms.p50", Testbed.percentile 50. p.connect);
    ("connect_ms.p99", Testbed.percentile 99. p.connect);
    ("request_ms.p50", Testbed.percentile 50. p.request);
    ("request_ms.p99", Testbed.percentile 99. p.request);
    ("goodput_mbps", goodput p);
  ]

(* [plain]: untraced timed passes; [traced]: traced passes *)
let per_layer_values plain traced =
  let p = (List.hd plain).probe in
  let get = Probe.get p in
  let worlds = max 1. (get "worlds") in
  let med_plain f = median (List.map f plain) in
  let med_traced f = median (List.map (fun x -> f x.probe) traced) in
  let per name scale d =
    med_traced (fun t -> ratio (Probe.get t name) (Probe.get t d) *. scale)
  in
  let wall = med_plain run_s in
  let chunks = get "statex.chunks_sent" in
  let merge q = ratio (get ("bridge.merge_" ^ q)) (get "bridge.merge_n") in
  let counts = List.map (fun n -> (n, get n)) in
  [
    ("sim.events", float_of_int p.events);
    ("sim.events_per_wall_s", ratio (float_of_int p.events) wall);
    ("sim.pending_peak", get "sim.pending_peak");
  ]
  @ List.map
      (fun role ->
        let n = "sim.cpu_util." ^ role in
        (n, get n /. worlds))
      [ "primary"; "secondary"; "dispatcher"; "shard_max" ]
  @ [
      ("sim.cpu_backlog_ms.p99.primary", Testbed.percentile 99. p.backlog);
      ("net.frames", get "net.frames"); ("net.bytes", get "net.bytes");
      ("net.collisions", get "net.collisions");
      ("net.wire_bytes_per_app_byte",
       ratio (get "net.bytes") (float_of_int p.app_bytes));
    ]
  @ counts
      [ "ip.rx"; "ip.tx"; "ip.forwarded"; "ip.arp_misses"; "tcp.retransmits";
        "tcp.rto_backoffs"; "tcp.rst_sent"; "tcp.demux_hits";
        "tcp.demux_misses"; "tcp.connections_peak"; "bridge.primary.emitted";
        "bridge.primary.empty_acks"; "bridge.primary.merged_bytes";
        "bridge.secondary.diverted"; "bridge.secondary.held_segments" ]
  @ [
      ("bridge.merge_latency_us.p50", merge "p50");
      ("bridge.merge_latency_us.p95", merge "p95");
      ("failover.detect_ms", median p.detect);
      ("failover.takeover_ms", median p.takeover);
      ("heartbeat.sent", get "heartbeat.sent");
      ("statex.transfer_bytes_per_conn",
       ratio (get "statex.transfer_bytes") (get "statex.accepts"));
      ("statex.chunks_sent", chunks);
      ("statex.chunk_retransmits", get "statex.chunk_retransmits");
      ("statex.chunk_useful_ratio",
       ratio (chunks -. get "statex.chunk_retransmits") chunks);
    ]
  @ counts
      [ "statex.pace_wait_us"; "statex.timeouts"; "statex.isolated_conns";
        "dispatch.routed"; "dispatch.drained"; "dispatch.refused";
        "dispatch.probes_sent"; "dispatch.shift_transitions";
        "dispatch.isolation_drops"; "obs.histogram_samples" ]
  @ [
      ("obs.snapshot_ms",
       med_plain (fun x -> Probe.get x.probe "obs.snapshot_s") *. 1e3);
      ("gc.minor_words_per_event",
       med_plain (fun x ->
           ratio x.minor_words (float_of_int x.probe.Probe.events)));
      ("gc.major_collections", med_plain (fun x -> float_of_int x.major));
      ("gc.top_heap_mb",
       float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
       /. 1048576.);
    ]
  @ List.map
      (fun n -> (n, med_traced (fun t -> Probe.span_total t n)))
      [ "host.topo_build_s"; "host.pool_create_s"; "wall.open_s";
        "wall.steady_s"; "wall.failover_s"; "wall.reintegrate_s" ]
  @ [
      ("apps.callback_s", med_traced (fun t -> t.Probe.cb_s -. t.Probe.lib_s));
      ("statex.encode_us_per_conn",
       per "statex.encode_s" 1e6 "statex.snapshots");
      ("statex.decode_us_per_conn",
       per "statex.decode_s" 1e6 "statex.snapshots");
      ("packet.decode_ns_per_frame", per "packet.decode_ns" 1. "packet.decode_n");
      ("packet.encode_ns_per_frame", per "packet.encode_ns" 1. "packet.encode_n");
      ("packet.checksum_ns_per_frame",
       per "packet.checksum_ns" 1. "packet.checksum_n");
      ("packet.mean_frame_bytes", per "packet.frame_bytes" 1. "packet.frames");
      ("trace.overhead", ratio (median (List.map run_s traced)) wall -. 1.);
      ("trace.control_events",
       float_of_int (List.length (List.hd traced).probe.Probe.instants));
      ("client.capacity_rps", p.capacity);
      ("client.stall_ms.p50", Testbed.percentile 50. p.stall);
      ("client.stall_ms.p99", Testbed.percentile 99. p.stall);
      ("client.reintegration_ms", median p.reint);
    ]

(* --------------------------------------------------------------- *)
(* Output *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_table ~units values =
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-34s %24s %s\n" name (json_number v)
        (List.assoc name units))
    values

let result_json ~correct ~attempted ~failed ~units values =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (json_number v) (List.assoc name units))
          values))

let write_spans dir name seed passes =
  let path =
    Filename.concat dir (Printf.sprintf "%s-%d.spans.jsonl" name seed)
  in
  let oc = open_out path in
  List.iteri
    (fun i x ->
      List.iter
        (fun (s : Probe.span) ->
          Printf.fprintf oc
            "{\"pass\": %d, \"id\": %d, \"name\": %S, \"parent\": %d, \
             \"start_s\": %.9f, \"end_s\": %.9f, \"sim_ns\": %d}\n"
            i s.id s.name s.parent s.t0 s.t1 s.sim_ns)
        (List.rev x.probe.Probe.spans);
      List.iter
        (fun (at, what) ->
          Printf.fprintf oc "{\"pass\": %d, \"instant\": %S, \"sim_ns\": %d}\n"
            i what at)
        (List.rev x.probe.Probe.instants))
    passes;
  close_out oc;
  Printf.printf "spans written to %s\n" path

let report (p : Probe.t) =
  List.iter (Printf.printf "FAILED: %s\n") (List.rev p.why_failed)

(* --------------------------------------------------------------- *)
(* Smoke: every workload at toy size, traced and untraced, and every
   metric BENCHMARK.json names emitted with its unit. *)

let smoke benchmark =
  let json = Names.read_file benchmark in
  let ok = ref true in
  let check what cond =
    if not cond then begin
      ok := false;
      Printf.printf "smoke FAILED: %s\n" what
    end
  in
  let listed section units =
    let declared = Names.metrics json section in
    check (section ^ " lists the runner's metrics, in order")
      (List.map fst declared = List.map fst units);
    List.iter
      (fun (n, u) ->
        check (Printf.sprintf "%s unit %s" n u) (List.assoc_opt n units = Some u))
      declared
  in
  listed "end_to_end" end_to_end;
  listed "per_layer" per_layer;
  List.iter
    (fun (name, _) ->
      let plain = run_pass name ~seed:1 ~smoke:true ~traced:false in
      let traced = run_pass name ~seed:1 ~smoke:true ~traced:true in
      report plain.probe;
      check (name ^ " correct")
        (plain.probe.failed = 0 && plain.probe.attempted > 0);
      check (name ^ " traced pass simulates the same")
        (identical [ plain; traced ]);
      let e2e = end_to_end_values ~rss_mb:(peak_rss_mb ()) [ plain ] in
      let layers = per_layer_values [ plain ] [ traced ] in
      check (name ^ " emits every metric")
        (List.map fst e2e = List.map fst end_to_end
        && List.map fst layers = List.map fst per_layer);
      List.iter
        (fun (m, v) ->
          check (Printf.sprintf "%s %s is positive" name m) (v > 0.))
        e2e;
      List.iter
        (fun (m, v) ->
          check (Printf.sprintf "%s %s is finite" name m) (Float.is_finite v))
        (e2e @ layers);
      Printf.printf "smoke %-20s ok (%d connections, %d events)\n%!" name
        plain.probe.attempted plain.probe.events)
    workloads;
  if not !ok then exit 1

(* --------------------------------------------------------------- *)

let usage = "suite.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and trace_out = ref "" and smoke_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from");
      ("--seconds", Arg.Set_float seconds, "S wall time to measure for");
      ("--trace", Arg.Set_int trace, "0|1 print per-layer metrics instead");
      ("--trace-out", Arg.Set_string trace_out, "DIR write traced spans here");
      ("--smoke", Arg.Set_string smoke_file,
       "FILE run every workload at toy size and check FILE (BENCHMARK.json)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !smoke_file <> "" then smoke !smoke_file
  else begin
    if not (List.mem_assoc !workload workloads && (!trace = 0 || !trace = 1))
    then begin
      Printf.eprintf "%s\nworkloads: %s\n" usage
        (String.concat ", " (List.map fst workloads));
      exit 2
    end;
    let traced = !trace = 1 in
    let deadline = Unix.gettimeofday () +. !seconds in
    let run traced = run_pass !workload ~seed:!seed ~smoke:false ~traced in
    (* the warm-up pass grows the heap and warms the caches: its simulated
       results are checked like every other pass's, its times are not
       reported *)
    let warmup = run false in
    let rss_mb = peak_rss_mb () in
    let plain = ref [] and tr = ref [] in
    while !plain = [] || Unix.gettimeofday () < deadline do
      plain := run false :: !plain;
      if traced then tr := run true :: !tr
    done;
    let plain = List.rev !plain and tr = List.rev !tr in
    let p = warmup.probe in
    report p;
    let repeated = identical ((warmup :: plain) @ tr) in
    if not repeated then print_endline "FAILED: passes did not simulate the same";
    let correct = repeated && p.failed = 0 in
    Printf.printf
      "%s seed %d: %d timed passes, %d of %d connections failed, %d events \
       per pass\n"
      !workload !seed (List.length plain) p.failed p.attempted p.events;
    Printf.printf "  wall_s per pass, unscaled/host-speed factor: %s\n"
      (String.concat " "
         (List.map
            (fun x ->
              Printf.sprintf "%.3f/%.2f" x.probe.Probe.run_s
                (ratio x.probe.scaled_run_s x.probe.run_s))
            plain));
    Printf.printf
      "  samples: connect %d, request %d, stall %d, reintegration %d\n"
      (List.length p.connect) (List.length p.request) (List.length p.stall)
      (List.length p.reint);
    Printf.printf
      "  capacity %.0f rps, stall p50 %.3f p99 %.3f ms, reintegration %.3f \
       ms, detect %.3f ms, takeover %.3f ms\n"
      p.capacity
      (Testbed.percentile 50. p.stall)
      (Testbed.percentile 99. p.stall)
      (median p.reint) (median p.detect) (median p.takeover);
    let units, values =
      if traced then (per_layer, per_layer_values plain tr)
      else (end_to_end, end_to_end_values ~rss_mb plain)
    in
    print_table ~units values;
    if traced && !trace_out <> "" then
      write_spans !trace_out !workload !seed tr;
    print_endline
      (result_json ~correct ~attempted:p.attempted ~failed:p.failed ~units
         values);
    if not correct then exit 1
  end
