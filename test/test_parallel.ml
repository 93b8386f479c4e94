(* Domain_pool and cross-domain determinism.

   The bench harness fans independent trials out over OCaml domains; the
   whole point is that --jobs N must be an observationally pure speedup.
   These tests lock that in at two levels: the pool itself (ordering,
   exception propagation, over-subscription) and full simulated worlds
   (per-trial results AND serialized metrics snapshots byte-identical
   between a serial and a 4-domain run). *)

module Domain_pool = Tcpfo_util.Domain_pool
module Registry = Tcpfo_obs.Registry
module Time = Tcpfo_sim.Time
module World = Tcpfo_host.World
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
open Testutil

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                      *)

let test_map_order () =
  let expected = List.init 25 (fun i -> i * i) in
  check_bool "jobs=1" true (Domain_pool.map ~jobs:1 25 (fun i -> i * i) = expected);
  check_bool "jobs=4" true (Domain_pool.map ~jobs:4 25 (fun i -> i * i) = expected);
  check_bool "jobs>n" true (Domain_pool.map ~jobs:64 25 (fun i -> i * i) = expected);
  check_bool "n=0" true (Domain_pool.map ~jobs:4 0 (fun i -> i) = [])

let test_exception_propagates () =
  (* several trials fail; the smallest failing index must win so the
     reported error does not depend on domain scheduling *)
  let attempt jobs =
    match
      Domain_pool.map ~jobs 20 (fun i ->
          if i mod 7 = 3 then failwith (string_of_int i) else i)
    with
    | _ -> None
    | exception Failure msg -> Some msg
  in
  check_bool "jobs=1 raises smallest" true (attempt 1 = Some "3");
  check_bool "jobs=4 raises smallest" true (attempt 4 = Some "3")

let test_default_jobs () =
  check_bool "default_jobs >= 1" true (Domain_pool.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* Whole-world determinism                                             *)

(* One bench-like trial: a replicated pair serves a 16 KB reply over a
   slightly lossy medium (loss exercises the RNG and retransmission
   paths, where any cross-domain state sharing would first show up).
   Returns everything observable: the bytes the client got and the
   final serialized metrics registry. *)
let trial i =
  let lan =
    make_repl_lan ~seed:(4000 + i)
      ~medium_config:
        { Tcpfo_net.Medium.default_config with loss_prob = 0.02 }
      ()
  in
  let sinks = ref [] in
  echo_service ~close_after:true ~request_size:4
    ~reply_of:(fun _ -> pattern ~tag:i 16_384)
    lan.repl ~port:5000 ~sinks ();
  let csink = make_sink () in
  let c =
    Stack.connect (Host.tcp lan.rclient)
      ~remote:(Tcpfo_core.Replicated.service_addr lan.repl, 5000)
      ()
  in
  wire_sink csink c;
  Tcb.set_on_established c (fun () -> ignore (Tcb.send c "get\n"));
  World.run lan.rworld ~for_:(Time.sec 30.0);
  (sink_contents csink, Registry.to_json (World.metrics lan.rworld))

let test_world_determinism () =
  let trials = 4 in
  let serial = Domain_pool.map ~jobs:1 trials trial in
  let parallel = Domain_pool.map ~jobs:4 trials trial in
  List.iteri
    (fun i ((data_s, json_s), (data_p, json_p)) ->
      check_int
        (Printf.sprintf "trial %d: reply fully received" i)
        16_384 (String.length data_s);
      check_string (Printf.sprintf "trial %d: payload identical" i) data_s
        data_p;
      check_string (Printf.sprintf "trial %d: metrics identical" i) json_s
        json_p)
    (List.combine serial parallel)

let suite =
  [
    Alcotest.test_case "map preserves index order" `Quick test_map_order;
    Alcotest.test_case "smallest-index exception wins" `Quick
      test_exception_propagates;
    Alcotest.test_case "default_jobs sane" `Quick test_default_jobs;
    Alcotest.test_case "worlds byte-identical across domains" `Quick
      test_world_determinism;
  ]
