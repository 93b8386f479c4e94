module Checksum = Tcpfo_util.Checksum

let test_known_vector () =
  (* RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2, ck 220d *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Testutil.check_int "partial" 0xddf2 (Checksum.partial b);
  Testutil.check_int "checksum" 0x220d (Checksum.of_bytes b)

let test_odd_length () =
  let b = Bytes.of_string "\x01\x02\x03" in
  (* 0102 + 0300 = 0402 -> ck = fbfd *)
  Testutil.check_int "odd" 0xfbfd (Checksum.of_bytes b)

let test_valid_with_embedded_checksum () =
  let b = Bytes.of_string "\x45\x00\x00\x1c\x00\x01\x00\x00\x40\x06\x00\x00\x0a\x00\x00\x01\x0a\x00\x00\x02" in
  let ck = Checksum.of_bytes b in
  Bytes.set b 10 (Char.chr (ck lsr 8));
  Bytes.set b 11 (Char.chr (ck land 0xFF));
  Testutil.check_bool "valid" true (Checksum.valid b)

let test_incremental_16 () =
  let b = Bytes.of_string "\x12\x34\x56\x78\x9a\xbc" in
  let ck = Checksum.of_bytes b in
  let b' = Bytes.copy b in
  Bytes.set b' 2 '\xde';
  Bytes.set b' 3 '\xad';
  let expected = Checksum.of_bytes b' in
  let adjusted = Checksum.adjust16 ck ~old16:0x5678 ~new16:0xdead in
  Testutil.check_int "adjust16 = recompute" expected adjusted

let arb_payload = QCheck.(string_of_size (Gen.int_range 0 512))

let prop_adjust_equals_recompute =
  QCheck.Test.make ~name:"incremental adjust = full recompute" ~count:300
    QCheck.(triple arb_payload (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF))
    (fun (payload, old32, new32) ->
      (* Build a message starting with the 4-byte (16-bit aligned) field. *)
      let mk v =
        let b = Bytes.create (4 + String.length payload) in
        Bytes.set b 0 (Char.chr ((v lsr 24) land 0xFF));
        Bytes.set b 1 (Char.chr ((v lsr 16) land 0xFF));
        Bytes.set b 2 (Char.chr ((v lsr 8) land 0xFF));
        Bytes.set b 3 (Char.chr (v land 0xFF));
        Bytes.blit_string payload 0 b 4 (String.length payload);
        b
      in
      let ck_old = Checksum.of_bytes (mk old32) in
      let ck_new = Checksum.of_bytes (mk new32) in
      Checksum.adjust32 ck_old ~old32 ~new32 = ck_new)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "RFC 1071 vector" `Quick test_known_vector;
    Alcotest.test_case "odd length pads with zero" `Quick test_odd_length;
    Alcotest.test_case "valid() over embedded checksum" `Quick
      test_valid_with_embedded_checksum;
    Alcotest.test_case "adjust16 matches recompute" `Quick
      test_incremental_16;
    q prop_adjust_equals_recompute;
  ]
