(* Microbenchmarks (bechamel) of the hot paths: ones-complement checksum
   (full vs incremental — the §3.1 claim that the bridge's rewrite is
   cheap), wire codec, sequence arithmetic, the interval buffer that backs
   both TCP reassembly and the bridge output queues, and the simulator
   core. *)

open Bechamel
open Toolkit
module Seq32 = Tcpfo_util.Seq32
module Checksum = Tcpfo_util.Checksum
module Interval_buf = Tcpfo_util.Interval_buf
module Wire = Tcpfo_packet.Wire
module Ipaddr = Tcpfo_packet.Ipaddr
module Seg = Tcpfo_packet.Tcp_segment
module Engine = Tcpfo_sim.Engine

let ip_a = Ipaddr.of_string "10.0.0.1"
let ip_b = Ipaddr.of_string "10.0.0.10"
let ip_c = Ipaddr.of_string "10.0.0.2"

let payload_1460 = String.init 1460 (fun i -> Char.chr (i land 0xFF))
let frame_bytes =
  Wire.encode_tcp ~src_ip:ip_a ~dst_ip:ip_b
    (Seg.make ~payload:payload_1460 ~src_port:80 ~dst_port:5000
       ~seq:(Seq32.of_int 42) ())

let test_checksum_full =
  Test.make ~name:"checksum/full-1460B" (Staged.stage (fun () ->
      ignore (Checksum.of_bytes frame_bytes)))

let test_checksum_incremental =
  Test.make ~name:"checksum/incremental-rewrite" (Staged.stage (fun () ->
      ignore
        (Checksum.adjust32 0x1234 ~old32:(Ipaddr.to_int ip_b)
           ~new32:(Ipaddr.to_int ip_c))))

let test_encode =
  let seg =
    Seg.make ~payload:payload_1460 ~src_port:80 ~dst_port:5000
      ~seq:(Seq32.of_int 42) ()
  in
  Test.make ~name:"wire/encode-1460B" (Staged.stage (fun () ->
      ignore (Wire.encode_tcp ~src_ip:ip_a ~dst_ip:ip_b seg)))

let test_decode =
  Test.make ~name:"wire/decode-1460B" (Staged.stage (fun () ->
      ignore (Wire.decode_tcp ~src_ip:ip_a ~dst_ip:ip_b frame_bytes)))

let test_seq32 =
  let s = Seq32.of_int 0xFFFFFF00 in
  Test.make ~name:"seq32/add+compare" (Staged.stage (fun () ->
      ignore (Seq32.lt s (Seq32.add s 1460))))

let test_interval_buf =
  (* one bridge matching step: insert a segment on both queues and pop the
     common prefix *)
  Test.make ~name:"interval_buf/insert+pop-1460B"
    (Staged.stage (fun () ->
         let b = Interval_buf.create ~base:(Seq32.of_int 1000) in
         Interval_buf.insert b ~seq:(Seq32.of_int 1000) payload_1460;
         ignore (Interval_buf.pop b ~max_len:1460)))

let test_engine =
  Test.make ~name:"engine/schedule+run-100"
    (Staged.stage (fun () ->
         let e = Engine.create () in
         for i = 1 to 100 do
           ignore (Engine.schedule e ~delay:i (fun () -> ()))
         done;
         Engine.run e))

let all_tests =
  Test.make_grouped ~name:"micro"
    [
      test_checksum_full;
      test_checksum_incremental;
      test_encode;
      test_decode;
      test_seq32;
      test_interval_buf;
      test_engine;
    ]

let run_exp () =
  Harness.print_header "Microbenchmarks (bechamel, monotonic clock)";
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] all_tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name res acc ->
        let ns =
          match Analyze.OLS.estimates res with
          | Some [ v ] -> v
          | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-40s %14s\n" "benchmark" "ns/run";
  List.iter (fun (name, ns) -> Printf.printf "%-40s %14.1f\n" name ns) rows;
  flush stdout
