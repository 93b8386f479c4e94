module Obs = Tcpfo_obs.Obs
module Registry = Tcpfo_obs.Registry

type instruments = {
  backoffs : Registry.counter;
  rtt_us : Registry.histogram;
}

let instruments obs =
  { backoffs = Obs.counter obs "rto_backoffs";
    rtt_us = Obs.histogram obs "rtt_us" }

type t = {
  rto_min : int;
  rto_max : int;
  mutable srtt : float option; (* ns *)
  mutable rttvar : float;
  mutable base : int; (* ns, before backoff *)
  mutable shift : int; (* backoff exponent *)
  ins : instruments;
}

let create ins ~init ~min:rto_min ~max:rto_max () =
  { rto_min; rto_max; srtt = None; rttvar = 0.0; base = init;
    shift = 0; ins }

let clamp t v = Int.max t.rto_min (Int.min t.rto_max v)

let sample t rtt =
  Registry.Histogram.observe t.ins.rtt_us (float_of_int rtt /. 1_000.0);
  let r = float_of_int rtt in
  (match t.srtt with
  | None ->
    t.srtt <- Some r;
    t.rttvar <- r /. 2.0
  | Some srtt ->
    let alpha = 0.125 and beta = 0.25 in
    t.rttvar <- ((1.0 -. beta) *. t.rttvar) +. (beta *. Float.abs (srtt -. r));
    t.srtt <- Some (((1.0 -. alpha) *. srtt) +. (alpha *. r)));
  match t.srtt with
  | Some srtt ->
    (* [rttvar] is a finite non-negative float (built from int samples
       and [Float.abs]), so neither NaN nor -0 reaches [Float.max] *)
    t.base <- clamp t (int_of_float (srtt +. Float.max 1.0 (4.0 *. t.rttvar)))
  | None -> ()

let current t =
  let v = t.base lsl t.shift in
  clamp t v

let backoff t =
  if current t < t.rto_max then begin
    Registry.Counter.incr t.ins.backoffs;
    t.shift <- t.shift + 1
  end

let reset_backoff t = t.shift <- 0
let srtt t = Option.map int_of_float t.srtt

type snapshot = {
  s_srtt : float option;
  s_rttvar : float;
  s_base : int;
  s_shift : int;
}

let export t =
  { s_srtt = t.srtt; s_rttvar = t.rttvar; s_base = t.base; s_shift = t.shift }

let import t s =
  t.srtt <- s.s_srtt;
  t.rttvar <- s.s_rttvar;
  t.base <- clamp t s.s_base;
  t.shift <- s.s_shift
