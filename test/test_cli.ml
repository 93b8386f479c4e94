(* The command-line driver end to end: the built tcpfo_cli.exe is run as
   a child process and its [run] line is compared with the same scenario
   run in process, so the CLI stays a front end over the soak and never
   drifts into a world of its own. *)

module Soak = Tcpfo_fault.Soak
open Testutil

(* next to this runner in the build tree; the test stanza depends on it *)
let exe =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "tcpfo_cli.exe" ]

type proc = { code : int; out : string; err : string }

let cli args =
  let out = Filename.temp_file "tcpfo_cli" ".out"
  and err = Filename.temp_file "tcpfo_cli" ".err" in
  let code =
    Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:err)
  in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let r = { code; out = read out; err = read err } in
  Sys.remove out;
  Sys.remove err;
  r

let run_line r =
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix:"[run] " l)
      (String.split_on_char '\n' r.out)
  with
  | Some l -> l
  | None -> Alcotest.failf "no [run] line in %S (stderr %S)" r.out r.err

(* what the CLI must print for [sc], computed in process *)
let expected seed sc =
  let o = Soak.run sc in
  ( o,
    Printf.sprintf "[run] {\"seed\":%d,\"violations\":%d,\"md5\":%S}" seed
      (List.length o.Soak.violations)
      (Soak.fingerprint [ o ]) )

let check_replay ?(args = []) ~code seed sc =
  let o, line = expected seed sc in
  let r = cli ([ "run"; "--seed"; string_of_int seed ] @ args) in
  check_int (Printf.sprintf "seed %d exit" seed) code r.code;
  check_string "first line describes the scenario" (Soak.describe sc)
    (List.hd (String.split_on_char '\n' r.out));
  check_string (Printf.sprintf "seed %d [run] line" seed) line (run_line r);
  List.iter
    (fun v ->
      check_bool ("prints " ^ v) true (contains r.out ("violation: " ^ v)))
    o.Soak.violations;
  r

(* 12: a pair whose primary dies in the handshake; 2: a three-replica
   chain; 27: a dispatcher fleet *)
let test_seeds_match () =
  List.iter
    (fun seed ->
      ignore (check_replay ~code:0 seed (Soak.scenario_of_seed seed)))
    [ 12; 2; 27 ]

(* seed 5050 failed until the soak's restored-replica check learned that
   a §7.2 backend connection closed before the repair has nothing to
   restore (DESIGN.md 7.16): the CLI must now replay it clean, exactly
   as the soak does *)
let test_seed_5050_clean () =
  let sc = Soak.scenario_of_seed 5050 in
  let r = check_replay ~code:0 5050 sc in
  check_bool "prints no violation" false (contains r.out "violation:")

let test_set_overrides () =
  let sets = [ ("phase", "transfer"); ("size", "120000") ] in
  match Soak.override 12 sets with
  | Error m -> Alcotest.fail m
  | Ok sc ->
    ignore
      (check_replay ~code:0 12 sc
         ~args:
           (List.concat_map (fun (a, l) -> [ "--set"; a ^ "=" ^ l ]) sets))

let test_trace_changes_nothing () =
  let r =
    check_replay ~code:0 12 (Soak.scenario_of_seed 12) ~args:[ "--trace" ]
  in
  check_bool "events on stderr" true (contains r.err " divert ");
  check_bool "no events on stdout" false (contains r.out " divert ")

(* seed 5: a three-replica pool loses its primary mid-transfer; the
   standby's promotion and the hot state transfer onto it reach the
   trace, with their counts, and the [run] line stays the untraced one *)
let test_trace_shows_promotion_and_transfer () =
  let r =
    check_replay ~code:0 5 (Soak.scenario_of_seed 5) ~args:[ "--trace" ]
  in
  List.iter
    (fun ev -> check_bool ("traces " ^ ev) true (contains r.err ev))
    [
      "standby promoted from standby";
      "secondary hot-transfer -> 10.0.0.4 started offers=2 isolated=0";
      "secondary hot-transfer -> 10.0.0.4 settled moved=2 isolated=0";
    ]

let test_bad_overrides_exit_2 () =
  List.iter
    (fun (set, names) ->
      let r = cli [ "run"; "--seed"; "5"; "--set"; set ] in
      check_int (set ^ " exit") 2 r.code;
      check_string (set ^ " runs nothing") "" r.out;
      check_bool (Printf.sprintf "%S names %S" r.err names) true
        (contains r.err names))
    [
      ("victim=primary", "unknown axis \"victim\"");
      ("pool=pool9", "row pool has no label \"pool9\"");
      (* seed 5 is a three-replica pool, which the chain never rides *)
      ("role=chain", "row role: the table rewrites role=chain");
    ]

let suite =
  [
    Alcotest.test_case "run matches Soak.run: pair, chain, fleet" `Quick
      test_seeds_match;
    Alcotest.test_case "run reports seed 5050's violation, if any, as the soak"
      `Quick test_seed_5050_clean;
    Alcotest.test_case "run --set replays Soak.override" `Quick
      test_set_overrides;
    Alcotest.test_case "run --trace leaves the [run] line" `Quick
      test_trace_changes_nothing;
    Alcotest.test_case "run --trace shows promotion and transfer" `Quick
      test_trace_shows_promotion_and_transfer;
    Alcotest.test_case "bad axis, label or forced setting exit 2" `Quick
      test_bad_overrides_exit_2;
  ]
