(* Properties of the hot-state-transfer codec (lib/statex): a snapshot
   round-trips through encode/decode structurally intact for arbitrary
   connection states, and any corruption of the wire image — bit flips,
   truncation, trailing garbage — is rejected before anything could be
   installed. *)

module Tcb = Tcpfo_tcp.Tcb
module Snapshot = Tcpfo_statex.Snapshot
module Seq32 = Tcpfo_util.Seq32
module Ipaddr = Tcpfo_packet.Ipaddr
open Testutil

(* -- deterministic random snapshot generator ---------------------------- *)

let states =
  [|
    Tcb.Syn_sent; Tcb.Syn_received; Tcb.Established; Tcb.Fin_wait_1;
    Tcb.Fin_wait_2; Tcb.Close_wait; Tcb.Closing; Tcb.Last_ack;
    Tcb.Time_wait; Tcb.Closed;
  |]

let rand_string st n =
  String.init n (fun _ -> Char.chr (QCheck.Gen.int_bound 255 st))

let u16 st = QCheck.Gen.int_bound 0xFFFF st
let u32 st = (u16 st lsl 16) lor u16 st

(* sequence numbers anywhere on the 32-bit circle, including near the
   wrap point *)
let rand_seq st =
  match QCheck.Gen.int_bound 3 st with
  | 0 -> Seq32.of_int (u16 st)
  | 1 -> Seq32.of_int (0xFFFF_FF00 + QCheck.Gen.int_bound 0xFF st)
  | _ -> Seq32.of_int (u32 st)

let rand_addr st =
  Ipaddr.of_string
    (Printf.sprintf "10.%d.%d.%d"
       (QCheck.Gen.int_bound 255 st)
       (QCheck.Gen.int_bound 255 st)
       (QCheck.Gen.int_bound 255 st))

let rand_snapshot st =
  let iss = rand_seq st in
  let sndbuf = rand_string st (QCheck.Gen.int_bound 300 st) in
  let start = QCheck.Gen.int_bound 1_000_000 st in
  {
    Tcb.sn_state = states.(QCheck.Gen.int_bound (Array.length states - 1) st);
    sn_local = (rand_addr st, QCheck.Gen.int_bound 0xFFFF st);
    sn_remote = (rand_addr st, QCheck.Gen.int_bound 0xFFFF st);
    sn_iss = iss;
    sn_sndbuf_start = start;
    sn_sndbuf_data = sndbuf;
    sn_snd_una = Seq32.add iss start;
    sn_snd_max = Seq32.add iss (start + QCheck.Gen.int_bound 200 st);
    sn_snd_wnd = QCheck.Gen.int_bound 1_000_000 st;
    sn_snd_wl1 = rand_seq st;
    sn_snd_wl2 = rand_seq st;
    sn_peer_mss = 1 + QCheck.Gen.int_bound 0xFFFE st;
    sn_fin_queued = QCheck.Gen.bool st;
    sn_fin_sent = QCheck.Gen.bool st;
    sn_irs = rand_seq st;
    sn_rcv_nxt = rand_seq st;
    sn_reasm =
      List.init (QCheck.Gen.int_bound 3 st) (fun _ ->
          (rand_seq st, rand_string st (1 + QCheck.Gen.int_bound 50 st)));
    sn_rcv_fin =
      (if QCheck.Gen.bool st then Some (rand_seq st) else None);
    sn_eof_signalled = QCheck.Gen.bool st;
    sn_srtt =
      (if QCheck.Gen.bool st then Some (QCheck.Gen.float_bound_exclusive 1e6 st)
       else None);
    sn_rttvar = QCheck.Gen.float_bound_exclusive 1e6 st;
    (* ns-scale RTO base: spread over the u64 field's useful range *)
    sn_rto_base = u32 st * (1 + QCheck.Gen.int_bound 60 st);
    sn_rto_shift = QCheck.Gen.int_bound 6 st;
    sn_cwnd = 1 + QCheck.Gen.int_bound 1_000_000 st;
    sn_ssthresh = 1 + QCheck.Gen.int_bound 1_000_000 st;
    sn_retained_input =
      List.init (QCheck.Gen.int_bound 5 st) (fun _ ->
          rand_string st (QCheck.Gen.int_bound 60 st));
    (* half never checkpointed (base 0), half checkpointed *)
    sn_replay_base =
      (if QCheck.Gen.bool st then 0 else 1 + QCheck.Gen.int_bound 1_000_000 st);
  }

let rand_conn st =
  {
    Snapshot.tcb = rand_snapshot st;
    role = (if QCheck.Gen.bool st then `Server else `Client);
    delta =
      (match QCheck.Gen.int_bound 2 st with
      | 0 -> 0
      | 1 -> u32 st land 0x7FFF_FFFF
      | _ -> -(u32 st land 0x7FFF_FFFF));
    next_wire_seq = rand_seq st;
    held_segments = QCheck.Gen.int_bound 64 st;
    solo = QCheck.Gen.bool st;
  }

let conn_arb =
  QCheck.make ~print:(fun c -> Printf.sprintf "<conn %d bytes encoded>"
                         (String.length (Snapshot.encode c)))
    rand_conn

(* -- properties --------------------------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"codec round-trip restores structural equality"
    ~count:300 conn_arb (fun conn ->
      match Snapshot.decode (Snapshot.encode conn) with
      | Ok conn' -> conn' = conn
      | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m)

let prop_bitflip_rejected =
  QCheck.Test.make ~name:"any single byte flip is rejected" ~count:60
    QCheck.(pair conn_arb (int_bound 10_000))
    (fun (conn, pos_seed) ->
      let img = Snapshot.encode conn in
      let pos = pos_seed mod String.length img in
      let b = Bytes.of_string img in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      match Snapshot.decode (Bytes.to_string b) with
      | Error _ -> true
      | Ok _ -> QCheck.Test.fail_reportf "flip at byte %d accepted" pos)

let prop_truncation_rejected =
  QCheck.Test.make ~name:"every truncation is rejected" ~count:40 conn_arb
    (fun conn ->
      let img = Snapshot.encode conn in
      let ok = ref true in
      (* check a spread of cut points including all the short prefixes
         that land inside the envelope header *)
      for cut = 0 to min 24 (String.length img - 1) do
        match Snapshot.decode (String.sub img 0 cut) with
        | Error _ -> ()
        | Ok _ -> ok := false
      done;
      let n = String.length img in
      List.iter
        (fun cut ->
          if cut >= 0 && cut < n then
            match Snapshot.decode (String.sub img 0 cut) with
            | Error _ -> ()
            | Ok _ -> ok := false)
        [ n - 1; n - 8; n / 2; (3 * n) / 4 ];
      !ok)

let prop_trailing_garbage_rejected =
  QCheck.Test.make ~name:"trailing garbage is rejected" ~count:40 conn_arb
    (fun conn ->
      match Snapshot.decode (Snapshot.encode conn ^ "\x00") with
      | Error _ -> true
      | Ok _ -> false)

(* -- replay base and envelope version ---------------------------------- *)

let with_replay_base conn base =
  { conn with Snapshot.tcb = { conn.Snapshot.tcb with Tcb.sn_replay_base = base } }

let test_delta_roundtrip () =
  let st = Random.State.make [| 7 |] in
  let conn = with_replay_base (rand_conn st) 123_456 in
  (match Snapshot.decode (Snapshot.encode conn) with
  | Ok conn' ->
    check_bool "delta round-trips" true (conn' = conn);
    check_int "replay base survives" 123_456 conn'.Snapshot.tcb.Tcb.sn_replay_base
  | Error m -> Alcotest.failf "delta decode failed: %s" m);
  (* one body form: the base-0 image of the same connection differs only
     in its 8-byte base field, so it is exactly as long *)
  let full = with_replay_base conn 0 in
  check_bool "bases differ on the wire" true
    (Snapshot.encode conn <> Snapshot.encode full);
  check_int "same length" (String.length (Snapshot.encode conn))
    (String.length (Snapshot.encode full))

let test_version_flip_rejected () =
  (* exactly one envelope version is accepted: rewriting the u16 version
     field (offset 4, after the magic) to anything else must be refused,
     although the body digest still matches *)
  let st = Random.State.make [| 9 |] in
  let img = Snapshot.encode (rand_conn st) in
  List.iter
    (fun v ->
      if v <> Tcpfo_statex.Codec.version then begin
        let b = Bytes.of_string img in
        Bytes.set b 4 (Char.chr (v lsr 8));
        Bytes.set b 5 (Char.chr (v land 0xFF));
        match Snapshot.decode (Bytes.to_string b) with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "envelope version %d accepted" v
      end)
    [ 0; 1; 2; 3; 4; 5; 0x0104; 0xFFFF ]

let test_exhaustive_small_flip () =
  (* deterministic complement to the sampled property: flip EVERY byte
     of one small image *)
  let st = Random.State.make [| 42 |] in
  let conn = rand_conn st in
  let img = Snapshot.encode conn in
  for pos = 0 to String.length img - 1 do
    let b = Bytes.of_string img in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
    match Snapshot.decode (Bytes.to_string b) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "byte flip at %d accepted" pos
  done;
  check_bool "original still decodes" true
    (Snapshot.decode img = Ok conn)

(* FNV-1a-64 known answers, and equality with the closure formulation
   the loop replaced, over a body larger than any snapshot. *)
let test_fnv1a64 () =
  let fnv = Tcpfo_statex.Codec.fnv1a64 in
  let check name want s = Alcotest.(check int64) name want (fnv s) in
  check "empty" 0xcbf29ce484222325L "";
  check "a" 0xaf63dc4c8601ec8cL "a";
  check "foobar" 0x85944171f73967e8L "foobar";
  let big =
    String.init (1 lsl 20) (fun i -> Char.chr ((i * 131) lxor (i lsr 8) land 0xFF))
  in
  let reference =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h :=
          Int64.mul
            (Int64.logxor !h (Int64.of_int (Char.code c)))
            0x100000001b3L)
      big;
    !h
  in
  check "1 MiB matches String.iter" reference big

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_roundtrip; prop_bitflip_rejected; prop_truncation_rejected;
      prop_trailing_garbage_rejected;
    ]
  @ [
      Alcotest.test_case "exhaustive single-byte corruption" `Quick
        test_exhaustive_small_flip;
      Alcotest.test_case "delta snapshot round-trip" `Quick
        test_delta_roundtrip;
      Alcotest.test_case "version byte flip rejected" `Quick
        test_version_flip_rejected;
      Alcotest.test_case "fnv1a64 known answers" `Quick test_fnv1a64;
    ]
