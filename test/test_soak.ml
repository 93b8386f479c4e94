(* Tier-1 subset of the E10 soak sweep: a fixed handful of seeded fault
   scenarios run end to end with every invariant checked, the first
   scenario of each newer axis, pinned seed → scenario mappings, the
   pairwise coverage of the CI seed range, and the seed-replay
   determinism guarantee.  The full sweep lives in bench/exp_soak.ml
   (bench/main.exe --exp soak). *)

module Soak = Tcpfo_fault.Soak
open Testutil

(* 396, 442 and 1108 are the three pinned-solo classes: a chain survivor
   in SYN_RCVD at rejoin, and a §7.2 backend connection in SYN_SENT at a
   repair and at a repair + rekill.  6885, 7178 and 9473 are fleet runs
   whose repair undoes the victim shard's weight dip inside one drive
   slice, so only the bus-fed weight oracle sees it.  1027 and 4394 are
   hot state transfers whose survivor sent new data during the hold:
   merging must resume at the snapshot's frontier, or the restored
   replica rejects every later client ACK as one for data it never
   sent (1027 a fleet repair after a kicked takeover, 4394 a promoted
   standby's ACK war). *)
let seeds =
  [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 396; 442; 1027; 1108; 4394; 6885;
    7178; 9473 ]

(* the CI seed range, which must cover every reachable pair *)
let ci_seeds = List.init 1000 (fun i -> i + 1)

let runs_clean sc =
  let o = Soak.run sc in
  Alcotest.(check (list string)) (Soak.describe sc) [] o.Soak.violations

let test_invariants_hold () =
  List.iter (fun seed -> runs_clean (Soak.scenario_of_seed seed)) seeds

let test_seed_set_covers_victims () =
  let victims =
    List.map (fun s -> (Soak.scenario_of_seed s).Soak.victim) seeds
  in
  check_bool "kills a primary" true (List.mem Soak.Primary victims);
  check_bool "kills a secondary" true (List.mem Soak.Secondary victims);
  check_bool "has a no-kill control" true (List.mem Soak.Nobody victims)

(* A reordered, reweighted or regated table row changes these. *)
let test_describe_pinned () =
  List.iter
    (fun (seed, want) ->
      check_string (Printf.sprintf "seed %d" seed) want
        (Soak.describe (Soak.scenario_of_seed seed)))
    [
      ( 1,
        "seed=1 kill=primary/transfer chaos=pause size=2000 \
         repair=repair+rekill xloss=0.20 pool=pair role=backend fleet=false \
         ckpt=false" );
      ( 5,
        "seed=5 kill=primary/transfer chaos=corruption size=400000 \
         repair=none xloss=0.00 pool=pool3 role=server fleet=false ckpt=true" );
      ( 396,
        "seed=396 kill=primary/transfer chaos=corruption size=2000 \
         repair=repair+rekill xloss=0.00 pool=pair role=chain fleet=false \
         ckpt=false" );
      ( 611,
        "seed=611 kill=primary/transfer chaos=drops size=20000 \
         repair=repair+rekill xloss=0.00 pool=pair role=backend fleet=false \
         ckpt=false" );
      ( 1108,
        "seed=1108 kill=primary/handshake chaos=calm size=20000 \
         repair=repair+rekill xloss=0.20 pool=pair role=backend fleet=false \
         ckpt=false" );
    ]

(* Pure, no simulation: every (axis=value, axis=value) pair the table's
   gates and forces can produce is drawn by some seed of the CI range. *)
let test_ci_seeds_cover_every_pair () =
  let c = Soak.coverage (List.map Soak.scenario_of_seed ci_seeds) in
  check_int "reachable pairs" 480 (List.length c.Soak.reachable);
  Alcotest.(check (list string))
    "pairs no seed in 1-1000 draws" []
    (List.map Soak.pair_to_string c.Soak.uncovered)

(* the first CI-range scenario satisfying [p] must run clean *)
let first_runs_clean p =
  match List.find_opt p (List.map Soak.scenario_of_seed ci_seeds) with
  | Some sc -> runs_clean sc
  | None -> Alcotest.fail "no scenario in the CI seed range"

(* a 3-replica pool surviving a cascading double kill, with and without
   a rejoin between the kills *)
let test_pool_axis_covered () =
  first_runs_clean (fun s -> s.Soak.pool = Soak.Pool3 { rejoin_first = false });
  first_runs_clean (fun s -> s.Soak.pool = Soak.Pool3 { rejoin_first = true })

let test_role_axis_covered () =
  first_runs_clean (fun s -> s.Soak.role = Soak.Backend_client);
  first_runs_clean (fun s -> s.Soak.role = Soak.Chain3)

(* fleet only rides the plain pair/server shape *)
let test_fleet_axis_covered () =
  List.iter
    (fun seed ->
      let sc = Soak.scenario_of_seed seed in
      if sc.Soak.fleet then
        check_bool
          (Printf.sprintf "seed %d: fleet forced onto pair/server/no-cross"
             seed)
          true
          (sc.Soak.pool = Soak.Pair && sc.Soak.role = Soak.Server
          && sc.Soak.chaos <> Soak.Cross_traffic))
    ci_seeds;
  first_runs_clean (fun s -> s.Soak.fleet && s.Soak.victim <> Soak.Nobody)

(* the checkpointed connection only rides server-role pair/pool worlds
   where a transfer happens, never fleet or cross traffic; the first such
   scenario — a long-lived checkpointing connection surviving a repair
   under a tight retention budget — must run clean *)
let test_checkpoint_axis_covered () =
  List.iter
    (fun seed ->
      let sc = Soak.scenario_of_seed seed in
      if sc.Soak.checkpointed then
        check_bool
          (Printf.sprintf
             "seed %d: checkpoint axis forced onto transfer-bearing server \
              worlds"
             seed)
          true
          (sc.Soak.role = Soak.Server && (not sc.Soak.fleet)
          && sc.Soak.chaos <> Soak.Cross_traffic
          && (sc.Soak.repair <> Soak.No_repair || sc.Soak.pool <> Soak.Pair)))
    ci_seeds;
  first_runs_clean (fun s -> s.Soak.checkpointed)

(* Pure: no override, and an override naming an axis by the label the
   seed already has, both give the seed's own scenario. *)
let test_override_identity () =
  List.iter
    (fun seed ->
      let sc = Soak.scenario_of_seed seed in
      List.iter
        (fun sets ->
          check_bool
            (Printf.sprintf "seed %d with %s" seed
               (String.concat "," (List.map (fun (a, l) -> a ^ "=" ^ l) sets)))
            true
            (Soak.override seed sets = Ok sc))
        ([] :: List.map (fun set -> [ set ]) (Soak.labels sc)))
    ci_seeds

let pairs_of s =
  let rec go = function
    | [] -> []
    | a :: rest -> List.map (fun b -> (a, b)) rest @ go rest
  in
  go (Soak.labels s)

(* Pure: every single-axis override that is accepted keeps the other
   axes the table lets it keep and is a scenario some seed can draw;
   the three refusals name the row. *)
let test_override_reachable_and_refusals () =
  let reachable = (Soak.coverage []).Soak.reachable in
  List.iter
    (fun seed ->
      List.iter
        (fun (axis, labels) ->
          List.iter
            (fun label ->
              match Soak.override seed [ (axis, label) ] with
              | Error _ -> ()
              | Ok s ->
                check_string "the override holds" label
                  (List.assoc axis (Soak.labels s));
                List.iter
                  (fun p ->
                    check_bool
                      (Printf.sprintf "seed %d %s=%s reaches %s" seed axis
                         label (Soak.pair_to_string p))
                      true (List.mem p reachable))
                  (pairs_of s))
            labels)
        Soak.axes)
    (List.init 50 (fun i -> i + 1));
  (* seed 2 draws a chain; only the size moves *)
  (match Soak.override 2 [ ("size", "2000") ] with
  | Ok s ->
    Alcotest.(check (list (pair string string)))
      "seed 2, size=2000"
      (List.map
         (fun (a, l) -> if a = "size" then (a, "2000") else (a, l))
         (Soak.labels (Soak.scenario_of_seed 2)))
      (Soak.labels s)
  | Error m -> Alcotest.fail m);
  List.iter
    (fun (seed, sets, names) ->
      match Soak.override seed sets with
      | Ok s -> Alcotest.failf "accepted: %s" (Soak.describe s)
      | Error m ->
        check_bool (Printf.sprintf "%S names %S" m names) true
          (contains m names))
    [
      (1, [ ("victim", "primary") ], "unknown axis \"victim\"");
      (1, [ ("pool", "pool9") ], "row pool");
      (5, [ ("role", "chain") ], "row role");
      (1, [ ("kill", "nobody"); ("phase", "fin") ], "row phase");
    ]

let test_replay_is_byte_identical () =
  let sc = Soak.scenario_of_seed 5 in
  let a = Soak.run sc in
  let b = Soak.run sc in
  check_string "metrics snapshots identical across replays" a.Soak.metrics
    b.Soak.metrics

let suite =
  [
    Alcotest.test_case "invariants hold on the fixed seed set" `Quick
      test_invariants_hold;
    Alcotest.test_case "seed set covers both victims" `Quick
      test_seed_set_covers_victims;
    Alcotest.test_case "describe pinned for sample seeds" `Quick
      test_describe_pinned;
    Alcotest.test_case "CI seeds cover every reachable axis pair" `Quick
      test_ci_seeds_cover_every_pair;
    Alcotest.test_case "pool axis covered and clean" `Quick
      test_pool_axis_covered;
    Alcotest.test_case "role axis covered and clean" `Quick
      test_role_axis_covered;
    Alcotest.test_case "fleet axis covered and clean" `Quick
      test_fleet_axis_covered;
    Alcotest.test_case "checkpoint axis covered and clean" `Quick
      test_checkpoint_axis_covered;
    Alcotest.test_case "seed replay byte-identical" `Quick
      test_replay_is_byte_identical;
    Alcotest.test_case "override without change is the seed" `Quick
      test_override_identity;
    Alcotest.test_case "override reachable, refusals name the row" `Quick
      test_override_reachable_and_refusals;
  ]
