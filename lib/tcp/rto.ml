module Obs = Tcpfo_obs.Obs
module Registry = Tcpfo_obs.Registry

type instruments = {
  backoffs : Registry.counter;
  rtt_us : Registry.histogram;
}

let instruments obs =
  { backoffs = Obs.counter obs "rto_backoffs";
    rtt_us = Obs.histogram obs "rtt_us" }

(* An all-float record stores its fields unboxed, so updating them
   allocates nothing; [srtt] is meaningful once [sampled]. *)
type estimate = {
  mutable srtt : float; (* ns *)
  mutable rttvar : float;
}

type t = {
  rto_min : int;
  rto_max : int;
  est : estimate;
  mutable sampled : bool;
  mutable base : int; (* ns, before backoff *)
  mutable shift : int; (* backoff exponent *)
  ins : instruments;
}

let create ins ~init ~min:rto_min ~max:rto_max () =
  { rto_min; rto_max; est = { srtt = 0.0; rttvar = 0.0 }; sampled = false;
    base = init; shift = 0; ins }

let clamp t v = Int.max t.rto_min (Int.min t.rto_max v)

let sample t rtt =
  Registry.Histogram.observe_us t.ins.rtt_us rtt;
  let r = float_of_int rtt in
  let e = t.est in
  if t.sampled then begin
    let alpha = 0.125 and beta = 0.25 in
    let srtt = e.srtt in
    e.rttvar <- ((1.0 -. beta) *. e.rttvar) +. (beta *. Float.abs (srtt -. r));
    e.srtt <- ((1.0 -. alpha) *. srtt) +. (alpha *. r)
  end
  else begin
    t.sampled <- true;
    e.srtt <- r;
    e.rttvar <- r /. 2.0
  end;
  (* [rttvar] is a finite non-negative float (built from int samples and
     [Float.abs]), so this is [Float.max 1.0 var] without the boxed call *)
  let var = 4.0 *. e.rttvar in
  let var = if var > 1.0 then var else 1.0 in
  t.base <- clamp t (int_of_float (e.srtt +. var))

let current t =
  let v = t.base lsl t.shift in
  clamp t v

let backoff t =
  if current t < t.rto_max then begin
    Registry.Counter.incr t.ins.backoffs;
    t.shift <- t.shift + 1
  end

let reset_backoff t = t.shift <- 0
let srtt t = if t.sampled then Some (int_of_float t.est.srtt) else None

type snapshot = {
  s_srtt : float option;
  s_rttvar : float;
  s_base : int;
  s_shift : int;
}

let export t =
  { s_srtt = (if t.sampled then Some t.est.srtt else None);
    s_rttvar = t.est.rttvar; s_base = t.base; s_shift = t.shift }

let import t s =
  t.sampled <- Option.is_some s.s_srtt;
  t.est.srtt <- Option.value s.s_srtt ~default:0.0;
  t.est.rttvar <- s.s_rttvar;
  t.base <- clamp t s.s_base;
  t.shift <- s.s_shift
