(* The observability subsystem: registry semantics, scoped naming, the
   event bus, snapshot determinism and the percentile edge cases the
   histogram summaries rely on. *)

module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Obs = Tcpfo_obs.Obs
module Event = Tcpfo_obs.Event
module Registry = Tcpfo_obs.Registry
module Stats = Tcpfo_util.Stats
module Rng = Tcpfo_util.Rng
open Testutil

(* ---------------- registry semantics ---------------- *)

let test_counter_basics () =
  let r = Registry.create () in
  let c = Registry.counter r "a.b" in
  Registry.Counter.incr c;
  Registry.Counter.add c 10;
  check_int "value" 11 (Registry.Counter.value c);
  check_int "by name" 11 (Registry.counter_value r "a.b");
  check_int "absent counter reads zero" 0 (Registry.counter_value r "nope")

let test_create_or_get_shares_instrument () =
  let r = Registry.create () in
  let c1 = Registry.counter r "shared" in
  let c2 = Registry.counter r "shared" in
  Registry.Counter.incr c1;
  Registry.Counter.incr c2;
  check_bool "same instrument" true (c1 == c2);
  check_int "aggregated" 2 (Registry.counter_value r "shared")

let test_kind_mismatch_raises () =
  let r = Registry.create () in
  ignore (Registry.counter r "x");
  check_bool "gauge over counter raises" true
    (try
       ignore (Registry.gauge r "x");
       false
     with Invalid_argument _ -> true);
  check_bool "histogram over counter raises" true
    (try
       ignore (Registry.histogram r "x");
       false
     with Invalid_argument _ -> true)

let test_gauge_and_histogram () =
  let r = Registry.create () in
  let g = Registry.gauge r "g" in
  Registry.Gauge.set g 5;
  Registry.Gauge.add g (-2);
  check_int "gauge" 3 (Registry.gauge_value r "g");
  let h = Registry.histogram r "h" in
  check_bool "empty histogram has no summary" true
    (Registry.histogram_summary r "h" = None);
  List.iter (Registry.Histogram.observe h) [ 3.0; 1.0; 2.0 ];
  check_int "histogram count" 3 (Registry.Histogram.count h);
  match Registry.histogram_summary r "h" with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
    check_int "count" 3 s.Stats.count;
    Alcotest.(check (float 1e-9)) "median" 2.0 s.Stats.median;
    Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
    Alcotest.(check (float 1e-9)) "max" 3.0 s.Stats.max

let test_names_sorted () =
  let r = Registry.create () in
  ignore (Registry.counter r "z");
  ignore (Registry.gauge r "a");
  ignore (Registry.counter r "m");
  Alcotest.(check (list string)) "sorted" [ "a"; "m"; "z" ] (Registry.names r)

(* ---------------- scoped naming ---------------- *)

let test_scope_composition () =
  let obs = Obs.create () in
  let host = Obs.scope (Obs.scope obs "host") "a" in
  Alcotest.(check string) "nested scope" "host.a.tcp.rst"
    (Obs.name (Obs.scope host "tcp") "rst");
  Alcotest.(check string) "root clears the prefix" "bridge.primary.emitted"
    (Obs.name (Obs.scope (Obs.root host) "bridge.primary") "emitted");
  (* scoped handles share one registry *)
  Registry.Counter.incr (Obs.counter (Obs.scope host "tcp") "rst");
  check_int "visible from the root" 1
    (Registry.counter_value (Obs.metrics obs) "host.a.tcp.rst")

let test_silent_is_private () =
  let a = Obs.silent () in
  let b = Obs.silent () in
  Registry.Counter.incr (Obs.counter a "c");
  check_int "other silent handle unaffected" 0
    (Registry.counter_value (Obs.metrics b) "c")

(* ---------------- event bus ---------------- *)

let test_bus_subscribe_and_guard () =
  let obs = Obs.create () in
  check_bool "inactive without subscribers" false (Obs.tracing obs);
  let seen = ref [] in
  let _sub =
    Event.Bus.subscribe (Obs.bus obs) (fun ~at ev -> seen := (at, ev) :: !seen)
  in
  check_bool "active with a subscriber" true (Obs.tracing obs);
  Obs.emit obs ~at:(Time.us 7)
    (Event.Failover { host = "p"; phase = Event.Degraded });
  check_int "delivered" 1 (List.length !seen);
  (match !seen with
  | [ (at, Event.Failover { host = "p"; phase = Event.Degraded }) ] ->
    check_int "timestamped" (Time.us 7) at
  | _ -> Alcotest.fail "unexpected event")

let test_is_segment_classifier () =
  let seg = Tcpfo_packet.Tcp_segment.make ~src_port:1 ~dst_port:2
      ~seq:(Tcpfo_util.Seq32.of_int 0) () in
  let ip = Tcpfo_packet.Ipaddr.of_int 3 in
  check_bool "tx is segment" true
    (Event.is_segment (Event.Segment_tx { host = "h"; dst = ip; seg }));
  check_bool "rx is segment" true
    (Event.is_segment (Event.Segment_rx { host = "h"; src = ip; seg }));
  check_bool "divert is control-plane" false
    (Event.is_segment (Event.Divert { host = "h"; orig_dst = ip; seg }))

(* ---------------- snapshot determinism ---------------- *)

(* A short fault-free transfer populates medium/nic/ip/tcp instruments;
   the JSON snapshot must be byte-identical across same-seed runs. *)
let snapshot ~seed =
  let lan = make_simple_lan ~seed () in
  Stack.listen (Host.tcp lan.server) ~port:80 ~on_accept:(fun tcb ->
      Tcb.set_on_data tcb (fun _ ->
          send_all ~close:true tcb (String.make 20_000 'r')));
  let c =
    Stack.connect (Host.tcp lan.client) ~remote:(Host.addr lan.server, 80) ()
  in
  let sink = make_sink () in
  wire_sink sink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "get"));
  World.run lan.world ~for_:(Time.sec 5.0);
  check_int "transfer complete" 20_000 (Buffer.length sink.buf);
  Registry.to_json (World.metrics lan.world)

let test_snapshot_deterministic () =
  let a = snapshot ~seed:42 in
  let b = snapshot ~seed:42 in
  Alcotest.(check string) "same seed, byte-identical JSON" a b;
  check_bool "instruments populated" true
    (String.length a > 2 && a <> "{}")

(* ---------------- percentile edge cases ---------------- *)

let test_percentile_edges () =
  Alcotest.(check (float 1e-9)) "single sample p0" 7.0
    (Stats.percentile 0.0 [ 7.0 ]);
  Alcotest.(check (float 1e-9)) "single sample p50" 7.0
    (Stats.percentile 50.0 [ 7.0 ]);
  Alcotest.(check (float 1e-9)) "single sample p100" 7.0
    (Stats.percentile 100.0 [ 7.0 ]);
  let xs = [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "p0 is the minimum" 1.0
    (Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p100 is the maximum" 5.0
    (Stats.percentile 100.0 xs);
  Alcotest.(check (float 1e-9)) "p50 is the median" 3.0
    (Stats.percentile 50.0 xs)

(* ---------------- bounded histograms ---------------- *)

let summary_of h =
  match Registry.Histogram.summary h with
  | Some s -> s
  | None -> Alcotest.fail "expected a summary"

(* Against the exact order statistics of the same sample: count, min and
   max are exact and every reported percentile lies in
   [exact·(1−2⁻⁷), exact], across uniform, exponential and heavy-tailed
   draws spanning 1e-3..1e6 with zeros mixed in. *)
let test_histogram_error_bound () =
  let uniform r = 1e-3 +. Rng.float r (1e6 -. 1e-3)
  and exponential r = Rng.exponential r ~mean:1e3
  and log_uniform r = 10.0 ** (Rng.float r 9.0 -. 3.0)
  and pareto r =
    Float.min 1e6 (1e-3 /. ((1.0 -. Rng.float r 1.0) ** (1.0 /. 0.5)))
  in
  let draws =
    [ ("uniform", uniform); ("exponential", exponential);
      ("log-uniform", log_uniform); ("pareto", pareto) ]
  in
  List.iter
    (fun seed ->
      List.iter
        (fun (name, draw) ->
          let r = Rng.create ~seed in
          let xs =
            List.init 10_000 (fun _ ->
                if Rng.bool r 0.05 then 0.0 else draw r)
          in
          let h = Registry.histogram (Registry.create ()) "h" in
          List.iter (Registry.Histogram.observe h) xs;
          let s = summary_of h in
          let what f = Printf.sprintf "%s seed %d %s" name seed f in
          check_int (what "count") 10_000 s.Stats.count;
          Alcotest.(check (float 0.0)) (what "min")
            (List.fold_left Float.min infinity xs) s.Stats.min;
          Alcotest.(check (float 0.0)) (what "max")
            (List.fold_left Float.max neg_infinity xs) s.Stats.max;
          (* mean and stddev come from running updates; the two-pass
             reference over the same list must agree *)
          let ref_s = Stats.summarize xs in
          List.iter
            (fun (f, want, got) ->
              if Float.abs (got -. want) > 1e-9 *. Float.abs want then
                Alcotest.failf "%s = %h, reference %h" (what f) got want)
            [ ("mean", ref_s.Stats.mean, s.Stats.mean);
              ("stddev", ref_s.Stats.stddev, s.Stats.stddev) ];
          List.iter
            (fun (p, got) ->
              let exact = Stats.percentile p xs in
              let lo = exact *. (1.0 -. (2.0 ** -7.0)) in
              if not (lo <= got && got <= exact) then
                Alcotest.failf "%s: p%g = %h outside [%h, %h]" (what "")
                  p got lo exact)
            [ (25.0, s.Stats.p25); (50.0, s.Stats.median);
              (75.0, s.Stats.p75); (95.0, s.Stats.p95);
              (99.0, s.Stats.p99); (99.9, s.Stats.p999) ])
        draws)
    [ 1; 2; 3 ]

(* Memory depends on the range of values seen, not on how many. *)
let test_histogram_memory_bounded () =
  let h = Registry.histogram (Registry.create ()) "h" in
  let r = Rng.create ~seed:5 in
  (* pin the range's ends, then draw inside it *)
  Registry.Histogram.observe h 1.0;
  Registry.Histogram.observe h 1e6;
  let observe n =
    for _ = 1 to n do
      Registry.Histogram.observe h (10.0 ** Rng.float r 6.0)
    done
  in
  observe 1_000;
  let words_1k = Obj.reachable_words (Obj.repr h) in
  observe (1_000_000 - 1_000);
  check_int "reachable words after 10^3 and 10^6 observations" words_1k
    (Obj.reachable_words (Obj.repr h))

let test_histogram_observe_allocates_nothing () =
  let h = Registry.histogram (Registry.create ()) "h" in
  let xs = List.init 100_000 (fun i -> float_of_int (1 + (i mod 5000))) in
  let observe = Registry.Histogram.observe h in
  List.iter observe xs;
  let w0 = Gc.minor_words () in
  List.iter observe xs;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words over 100k warm observations" 0.0
    (w1 -. w0);
  check_int "all counted" 200_000 (Registry.Histogram.count h)

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "create-or-get shares the instrument" `Quick
      test_create_or_get_shares_instrument;
    Alcotest.test_case "kind mismatch raises" `Quick test_kind_mismatch_raises;
    Alcotest.test_case "gauge and histogram" `Quick test_gauge_and_histogram;
    Alcotest.test_case "names are sorted" `Quick test_names_sorted;
    Alcotest.test_case "scope composition" `Quick test_scope_composition;
    Alcotest.test_case "silent handles are private" `Quick
      test_silent_is_private;
    Alcotest.test_case "bus subscribe/emit" `Quick
      test_bus_subscribe_and_guard;
    Alcotest.test_case "segment classifier" `Quick test_is_segment_classifier;
    Alcotest.test_case "snapshot determinism" `Quick
      test_snapshot_deterministic;
    Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
    Alcotest.test_case "histogram percentile error bound" `Quick
      test_histogram_error_bound;
    Alcotest.test_case "histogram memory independent of count" `Quick
      test_histogram_memory_bounded;
    Alcotest.test_case "histogram observe allocates nothing" `Quick
      test_histogram_observe_allocates_nothing;
  ]
