module Seq32 = Tcpfo_util.Seq32
module Ipaddr = Tcpfo_packet.Ipaddr
module Tcb = Tcpfo_tcp.Tcb

type role = [ `Server | `Client ]

type conn = {
  tcb : Tcb.snapshot;
  role : role;
  delta : int;
  next_wire_seq : Seq32.t;
  held_segments : int;
  solo : bool;
}

let role_tag : role -> int = function `Server -> 0 | `Client -> 1

let role_of_tag = function
  | 0 -> `Server
  | 1 -> `Client
  | n -> raise (Codec.Corrupt (Printf.sprintf "invalid role tag %d" n))

(* --- primitive field helpers ------------------------------------- *)

let w_seq b s = Codec.W.u32 b (Seq32.to_int s)
let r_seq r = Seq32.of_int (Codec.R.u32 r)

let w_addr b a = Codec.W.u32 b (Ipaddr.to_int a)
let r_addr r = Ipaddr.of_int (Codec.R.u32 r)

let w_endpoint b (a, p) =
  w_addr b a;
  Codec.W.u16 b p

let r_endpoint r =
  let a = r_addr r in
  let p = Codec.R.u16 r in
  (a, p)

let state_tag : Tcb.state -> int = function
  | Tcb.Syn_sent -> 0
  | Syn_received -> 1
  | Established -> 2
  | Fin_wait_1 -> 3
  | Fin_wait_2 -> 4
  | Close_wait -> 5
  | Closing -> 6
  | Last_ack -> 7
  | Time_wait -> 8
  | Closed -> 9

let state_of_tag = function
  | 0 -> Tcb.Syn_sent
  | 1 -> Tcb.Syn_received
  | 2 -> Tcb.Established
  | 3 -> Tcb.Fin_wait_1
  | 4 -> Tcb.Fin_wait_2
  | 5 -> Tcb.Close_wait
  | 6 -> Tcb.Closing
  | 7 -> Tcb.Last_ack
  | 8 -> Tcb.Time_wait
  | 9 -> Tcb.Closed
  | n -> raise (Codec.Corrupt (Printf.sprintf "invalid state tag %d" n))

(* --- TCB image ----------------------------------------------------

   One wire form: the body opens with the u64 replay base, then this
   layout.  The retained-input list holds only deliveries past the base
   and the send buffer only client-unACKed bytes, so a checkpointing
   long-lived connection ships kilobytes instead of its lifetime
   history; a connection that never checkpointed has base 0 and ships
   its whole history — a "full" image is just that case. *)

let write_tcb b (s : Tcb.snapshot) =
  Codec.W.u8 b (state_tag s.sn_state);
  w_endpoint b s.sn_local;
  w_endpoint b s.sn_remote;
  w_seq b s.sn_iss;
  Codec.W.u64 b (Int64.of_int s.sn_sndbuf_start);
  Codec.W.str b s.sn_sndbuf_data;
  w_seq b s.sn_snd_una;
  w_seq b s.sn_snd_max;
  Codec.W.u32 b s.sn_snd_wnd;
  w_seq b s.sn_snd_wl1;
  w_seq b s.sn_snd_wl2;
  Codec.W.u16 b s.sn_peer_mss;
  Codec.W.bool b s.sn_fin_queued;
  Codec.W.bool b s.sn_fin_sent;
  w_seq b s.sn_irs;
  w_seq b s.sn_rcv_nxt;
  Codec.W.list b
    (fun b (seq, data) ->
      w_seq b seq;
      Codec.W.str b data)
    s.sn_reasm;
  Codec.W.option b w_seq s.sn_rcv_fin;
  Codec.W.bool b s.sn_eof_signalled;
  Codec.W.option b Codec.W.float s.sn_srtt;
  Codec.W.float b s.sn_rttvar;
  Codec.W.u64 b (Int64.of_int s.sn_rto_base);
  Codec.W.u8 b s.sn_rto_shift;
  Codec.W.u64 b (Int64.of_int s.sn_cwnd);
  Codec.W.u64 b (Int64.of_int s.sn_ssthresh);
  Codec.W.list b Codec.W.str s.sn_retained_input

let read_tcb r ~replay_base : Tcb.snapshot =
  let sn_state = state_of_tag (Codec.R.u8 r) in
  let sn_local = r_endpoint r in
  let sn_remote = r_endpoint r in
  let sn_iss = r_seq r in
  let sn_sndbuf_start = Int64.to_int (Codec.R.u64 r) in
  let sn_sndbuf_data = Codec.R.str r in
  let sn_snd_una = r_seq r in
  let sn_snd_max = r_seq r in
  let sn_snd_wnd = Codec.R.u32 r in
  let sn_snd_wl1 = r_seq r in
  let sn_snd_wl2 = r_seq r in
  let sn_peer_mss = Codec.R.u16 r in
  let sn_fin_queued = Codec.R.bool r in
  let sn_fin_sent = Codec.R.bool r in
  let sn_irs = r_seq r in
  let sn_rcv_nxt = r_seq r in
  let sn_reasm =
    Codec.R.list r (fun r ->
        let seq = r_seq r in
        let data = Codec.R.str r in
        (seq, data))
  in
  let sn_rcv_fin = Codec.R.option r r_seq in
  let sn_eof_signalled = Codec.R.bool r in
  let sn_srtt = Codec.R.option r Codec.R.float in
  let sn_rttvar = Codec.R.float r in
  let sn_rto_base = Int64.to_int (Codec.R.u64 r) in
  let sn_rto_shift = Codec.R.u8 r in
  let sn_cwnd = Int64.to_int (Codec.R.u64 r) in
  let sn_ssthresh = Int64.to_int (Codec.R.u64 r) in
  let sn_retained_input = Codec.R.list r Codec.R.str in
  {
    sn_state;
    sn_local;
    sn_remote;
    sn_iss;
    sn_sndbuf_start;
    sn_sndbuf_data;
    sn_snd_una;
    sn_snd_max;
    sn_snd_wnd;
    sn_snd_wl1;
    sn_snd_wl2;
    sn_peer_mss;
    sn_fin_queued;
    sn_fin_sent;
    sn_irs;
    sn_rcv_nxt;
    sn_reasm;
    sn_rcv_fin;
    sn_eof_signalled;
    sn_srtt;
    sn_rttvar;
    sn_rto_base;
    sn_rto_shift;
    sn_cwnd;
    sn_ssthresh;
    sn_retained_input;
    sn_replay_base = replay_base;
  }

(* --- full transfer unit ------------------------------------------- *)

let write_conn_tail b c =
  Codec.W.u8 b (role_tag c.role);
  Codec.W.u32 b (c.delta land 0xFFFF_FFFF);
  w_seq b c.next_wire_seq;
  Codec.W.u32 b c.held_segments;
  Codec.W.bool b c.solo

let encode c =
  let b = Codec.W.create () in
  Codec.W.u64 b (Int64.of_int c.tcb.Tcb.sn_replay_base);
  write_tcb b c.tcb;
  write_conn_tail b c;
  Codec.seal (Codec.W.contents b)

let decode s =
  match Codec.unseal s with
  | Error m -> Error m
  | Ok body -> (
    try
      let r = Codec.R.of_string body in
      let replay_base = Int64.to_int (Codec.R.u64 r) in
      let tcb = read_tcb r ~replay_base in
      let role = role_of_tag (Codec.R.u8 r) in
      let delta =
        (* sign-extend the 32-bit two's-complement field *)
        let v = Codec.R.u32 r in
        if v land 0x8000_0000 <> 0 then v - (1 lsl 32) else v
      in
      let next_wire_seq = r_seq r in
      let held_segments = Codec.R.u32 r in
      let solo = Codec.R.bool r in
      if not (Codec.R.at_end r) then Error "trailing bytes in snapshot"
      else Ok { tcb; role; delta; next_wire_seq; held_segments; solo }
    with Codec.Corrupt m -> Error m)
