(* E4 — Figure 5: send and receive rates for long data streams (100 MB in
   the paper; configurable for quick runs). *)

open Harness
module Time = Tcpfo_sim.Time
module Host = Tcpfo_host.Host
module Stack = Tcpfo_tcp.Stack
module Tcb = Tcpfo_tcp.Tcb
module Bulk = Tcpfo_apps.Bulk

(* Send rate: client streams [size] bytes at the service; the clock stops
   when the server application has consumed the last byte. *)
let send_rate mode ~size ~seed =
  let env = make_env ~seed mode in
  let finished = ref None in
  env.install ~port:5001 (fun tcb ->
      let got = ref 0 in
      Tcb.set_on_data tcb (fun d ->
          got := !got + String.length d;
          if !got >= size then finished := Some (now env));
      Tcb.set_on_eof tcb (fun () -> Tcb.close tcb));
  run env ~for_:(Time.ms 5);
  let started = ref Time.zero in
  let c =
    Stack.connect (Host.tcp env.client) ~remote:(env.service, 5001) ()
  in
  Tcb.set_on_established c (fun () ->
      started := now env;
      timed_send (Host.clock env.client) c ~size ~on_buffered:(fun () ->
          Tcb.close c));
  run env ~for_:(Time.sec 600.0);
  match !finished with
  | Some t -> Some (kb_per_s ~bytes:size ~ns:(t - !started))
  | None -> None

(* Receive rate: the server streams [size] bytes at the client. *)
let receive_rate mode ~size ~seed =
  let env = make_env ~seed mode in
  env.install ~port:5002 (fun tcb ->
      (* server-side write loop: backpressure-driven, wire-limited (the
         server's copy costs are negligible against 100 MB of wire time) *)
      Tcb.set_on_established tcb (fun () ->
          let chunk = String.make 32768 'r' in
          let off = ref 0 in
          let rec pump () =
            if !off < size then begin
              let want = min 32768 (size - !off) in
              let n =
                Tcb.send tcb
                  (if want = 32768 then chunk else String.sub chunk 0 want)
              in
              off := !off + n;
              if n < want then Tcb.set_on_drain tcb pump else pump ()
            end
            else Tcb.close tcb
          in
          pump ()));
  run env ~for_:(Time.ms 5);
  let started = ref Time.zero in
  let finished = ref None in
  let received = ref 0 in
  let c =
    Stack.connect (Host.tcp env.client) ~remote:(env.service, 5002) ()
  in
  Tcb.set_on_established c (fun () -> started := now env);
  Tcb.set_on_data c (fun d ->
      received := !received + String.length d;
      if !received >= size then finished := Some (now env));
  run env ~for_:(Time.sec 600.0);
  match !finished with
  | Some t -> Some (kb_per_s ~bytes:size ~ns:(t - !started))
  | None -> None

let run_exp ~size =
  print_header
    (Printf.sprintf
       "E4 / Figure 5: stream rates for %d MB transfers (paper: 100 MB)"
       (size / (1 lsl 20)));
  let get f = match f with Some v -> v | None -> nan in
  (* the four streams are independent worlds: run them as one task batch *)
  let s_std, s_fo, r_std, r_fo =
    match
      run_tasks
        [ (fun () -> send_rate Std ~size ~seed:41);
          (fun () -> send_rate Failover ~size ~seed:42);
          (fun () -> receive_rate Std ~size ~seed:43);
          (fun () -> receive_rate Failover ~size ~seed:44) ]
    with
    | [ a; b; c; d ] -> (get a, get b, get c, get d)
    | _ -> assert false
  in
  Printf.printf "%-14s %14s %14s %8s %18s\n" "" "std [KB/s]" "failover"
    "ratio" "paper (std/fo)";
  Printf.printf "%-14s %14.2f %14.2f %8.2f %18s\n" "send rate" s_std s_fo
    (s_fo /. s_std) "7833.70/5835.80";
  Printf.printf "%-14s %14.2f %14.2f %8.2f %18s\n" "receive rate" r_std r_fo
    (r_fo /. r_std) "8707.88/3510.03";
  (* Standard TCP moves bulk data at the wire's rate either way: a send
     rate well below the receive rate is a sender stalling (runt
     segments, DESIGN.md 7.24), not the path. *)
  let symmetric_ok = Float.abs (s_std -. r_std) <= 0.05 *. r_std in
  Printf.printf
    "[fig5-summary] {\"size_mb\":%d,\"jobs\":%d,\"send_std_kbps\":%.2f,\
     \"send_fo_kbps\":%.2f,\"recv_std_kbps\":%.2f,\"recv_fo_kbps\":%.2f,\
     \"send_ratio\":%.2f,\"recv_ratio\":%.2f,\"symmetric_ok\":%b}\n"
    (size / (1 lsl 20)) !jobs s_std s_fo r_std r_fo (s_fo /. s_std)
    (r_fo /. r_std) symmetric_ok;
  Printf.printf
    "shape check: the receive-rate penalty (~0.40 in the paper) is much\n\
     larger than the send-rate penalty (~0.75) because every\n\
     server-to-client byte crosses the shared segment twice.\n%!";
  dump_metrics ~exp:"fig5"
