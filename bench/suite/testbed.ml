(* Host profiles and segments shared by the workloads, fixed here so the
   benchmark does not move when the experiments under bench/ are
   retuned. *)

module Time = Tcpfo_sim.Time
module Host = Tcpfo_host.Host
module Topo = Tcpfo_host.Topo
module Medium = Tcpfo_net.Medium

(* The paper's testbed CPU: standard-TCP connection setup lands near the
   paper's ~294 us median on the 100 Mb/s segment (§9). *)
let paper_profile =
  { Host.tx_cost = Time.us 52; rx_cost = Time.us 72; jitter_frac = 0.25;
    hiccup_prob = 0.015 }

(* A server-class host an order of magnitude faster, as E13, E11 and E15
   use: the paper's CPU saturates far below thousands of connections. *)
let server_class =
  { Host.tx_cost = Time.us 5; rx_cost = Time.us 7; jitter_frac = 0.25;
    hiccup_prob = 0.015 }

let gigabit = { Medium.default_config with bandwidth_bps = 1_000_000_000 }

(* A replicated pair and [clients] clients on segment "lan", declared in
   the order E11 and E13 use: client<i> at 10.0.0.(10+i), "primary" at
   .1 and "secondary" at .2, grouped as "pool". *)
let pair world ?lan ~profile ~clients () =
  let host name addr = Topo.host ~profile ~addr ~seg:"lan" name in
  Topo.build world
    ((Topo.segment ?config:lan "lan"
     :: List.init clients (fun i ->
            host
              (Printf.sprintf "client%d" i)
              (Printf.sprintf "10.0.0.%d" (10 + i))))
    @ [ host "primary" "10.0.0.1"; host "secondary" "10.0.0.2";
        Topo.group ~members:[ "primary"; "secondary" ] "pool" ])

(* Nearest-rank percentile of an unsorted sample; 0 when empty. *)
let percentile q xs =
  match xs with
  | [] -> 0.
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* A deterministic byte pattern, so a receiver can check any stream
   offset without keeping the stream. *)
let pattern n = String.init n (fun i -> Char.chr (33 + ((i * 7 + (i lsr 8)) mod 90)))

(* [matches pat off s]: [s] is the pattern's bytes at [off].  Compared
   eight bytes at a time: the check runs inside [World.run] on every
   delivered byte, so its cost lands in [wall_s]. *)
let matches pat off s =
  let n = String.length s in
  off + n <= String.length pat
  &&
  let rec words i =
    if i + 8 > n then bytes i
    else
      Int64.equal (String.get_int64_ne s i) (String.get_int64_ne pat (off + i))
      && words (i + 8)
  and bytes i = i = n || (s.[i] = pat.[off + i] && bytes (i + 1)) in
  words 0
