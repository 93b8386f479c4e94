(* E10: failover soak — hundreds of seeded fault scenarios drawn from
   the axis table in Tcpfo_fault.Soak (kill victim and phase, chaos,
   size, repair plan, control-channel loss, pool shape, service role,
   dispatcher fleet, checkpointed connection) with the §2 correctness
   requirements checked as hard invariants on every run.

   Scenario construction, chaos plan and kill instant all derive from
   the seed alone, so any seed printed in a failure report reproduces
   the run — including a byte-identical metrics snapshot, which this
   experiment re-verifies on a sample of seeds after the sweep. *)

module Soak = Tcpfo_fault.Soak

(* pass/fail counts for every value of every axis, by the table's own
   labels *)
let print_axes outcomes =
  Printf.printf "  %-6s %-14s %6s %6s\n" "axis" "value" "pass" "FAIL";
  let tally = Hashtbl.create 64 in
  List.iter
    (fun (o : Soak.outcome) ->
      List.iter
        (fun key ->
          let ok, bad =
            Option.value (Hashtbl.find_opt tally key) ~default:(0, 0)
          in
          Hashtbl.replace tally key
            (if o.violations = [] then (ok + 1, bad) else (ok, bad + 1)))
        (Soak.labels o.scenario))
    outcomes;
  List.iter
    (fun (axis, values) ->
      List.iter
        (fun v ->
          let ok, bad =
            Option.value (Hashtbl.find_opt tally (axis, v)) ~default:(0, 0)
          in
          Printf.printf "  %-6s %-14s %6d %6d\n" axis v ok bad)
        values)
    Soak.axes

(* Machine-readable pairwise coverage: how many of the (axis=value,
   axis=value) pairs the table can produce the swept seeds exercised. *)
let pairs_line outcomes =
  let c =
    Soak.coverage (List.map (fun (o : Soak.outcome) -> o.scenario) outcomes)
  in
  let reachable = List.length c.reachable in
  Printf.printf
    "[soak-pairs] {\"reachable\":%d,\"covered\":%d,\"uncovered\":[%s]}\n%!"
    reachable
    (reachable - List.length c.uncovered)
    (String.concat ","
       (List.map
          (fun p -> Printf.sprintf "%S" (Soak.pair_to_string p))
          c.uncovered))

(* Machine-readable digest of the whole sweep, in seed order.  Two trees
   that simulate identically print the same line at any --jobs;
   scripts/identity.sh compares it across revisions. *)
let fingerprint_line ~first_seed outcomes =
  Printf.printf "[soak-fingerprint] {\"first\":%d,\"seeds\":%d,\"md5\":%S}\n%!"
    first_seed (List.length outcomes)
    (Soak.fingerprint outcomes)

let write_report path failures =
  let oc = open_out path in
  Printf.fprintf oc "# soak invariant failures (%d)\n" (List.length failures);
  List.iter
    (fun (o : Soak.outcome) ->
      Printf.fprintf oc "%s\n" (Soak.describe o.scenario);
      List.iter (Printf.fprintf oc "  violation: %s\n") o.violations;
      Printf.fprintf oc
        "  replay: dune exec bin/tcpfo_cli.exe -- run --seed %d --trace\n"
        o.scenario.Soak.seed)
    failures;
  close_out oc;
  Printf.printf "  [failure report -> %s]\n%!" path

(* Replay determinism: the same seed must reproduce the same world
   byte for byte, which we check through the strongest observable —
   the sorted JSON metrics snapshot. *)
let replay_check outcomes =
  let n = List.length outcomes in
  let sample =
    List.filteri (fun i _ -> i = 0 || i = n / 2 || i = n - 1) outcomes
  in
  List.for_all
    (fun (o : Soak.outcome) ->
      let again = Soak.run o.scenario in
      let same = String.equal again.metrics o.metrics in
      if not same then
        Printf.printf "  REPLAY DIVERGED: %s\n" (Soak.describe o.scenario);
      same)
    sample

let run_exp ~seeds ?(first_seed = 1) ?report () =
  Harness.print_header
    (Printf.sprintf "E10: failover soak (%d seeded fault scenarios)" seeds);
  let outcomes =
    Harness.map_trials seeds (fun i ->
        Soak.run ~on_world:Harness.note_world
          (Soak.scenario_of_seed (first_seed + i)))
  in
  print_axes outcomes;
  pairs_line outcomes;
  fingerprint_line ~first_seed outcomes;
  let failures =
    List.filter (fun (o : Soak.outcome) -> o.violations <> []) outcomes
  in
  List.iter
    (fun (o : Soak.outcome) ->
      Printf.printf "  FAIL %s\n" (Soak.describe o.scenario);
      List.iter (Printf.printf "       %s\n") o.violations)
    failures;
  let replays_ok = replay_check outcomes in
  Printf.printf "  invariant violations : %d / %d scenarios\n"
    (List.length failures) seeds;
  Printf.printf "  seed-replay metrics  : %s\n%!"
    (if replays_ok then "byte-identical" else "DIVERGED");
  (match report with
  | Some path when failures <> [] || not replays_ok ->
    write_report path failures
  | _ -> ());
  Harness.dump_metrics ~exp:"soak";
  List.length failures + if replays_ok then 0 else 1
