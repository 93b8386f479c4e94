module Stats = Tcpfo_util.Stats
module Stbl = Hashtbl.Make (String)

type counter = { mutable c : int }
type gauge = { mutable g : int }

(* Histograms are fixed-precision log-linear bucket counts in the style
   of HdrHistogram; no sample is stored.  A positive value's bucket is
   its IEEE-754 bit pattern shifted right by [52 - sub_bits]: the biased
   exponent followed by the top [sub_bits] mantissa bits.  So every
   power of two splits into [2^sub_bits] equal-width sub-buckets, the
   index grows with the value, and a bucket's lowest value lies within
   a relative [2^-sub_bits] below anything counted in it.  [count],
   [min] and [max] are exact; [mean] and [stddev] follow Welford's
   method in insertion order. *)
let sub_bits = 7
let shift = 52 - sub_bits

(* all-float, so the fields are stored unboxed and updating them
   allocates nothing *)
type moments = {
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations from [mean] *)
  mutable lo : float;
  mutable hi : float;
}

type histogram = {
  mutable counts : int array; (* [counts.(i)] counts bucket [base + i] *)
  mutable base : int;
  mutable n : int;
  mutable nonpos : int; (* values <= 0, ranked below every bucket *)
  m : moments;
}

type instrument = C of counter | G of gauge | H of histogram

type t = { tbl : instrument Stbl.t }

let create () = { tbl = Stbl.create 64 }

let register t name make describe =
  match Stbl.find_opt t.tbl name with
  | None ->
    let i = make () in
    Stbl.replace t.tbl name i;
    i
  | Some i -> describe i

let kind_error name want =
  invalid_arg
    (Printf.sprintf "Registry.%s: %S is already registered as another kind"
       want name)

let counter t name =
  match
    register t name
      (fun () -> C { c = 0 })
      (function C _ as i -> i | G _ | H _ -> kind_error name "counter")
  with
  | C c -> c
  | G _ | H _ -> assert false

let gauge t name =
  match
    register t name
      (fun () -> G { g = 0 })
      (function G _ as i -> i | C _ | H _ -> kind_error name "gauge")
  with
  | G g -> g
  | C _ | H _ -> assert false

let histogram t name =
  match
    register t name
      (fun () ->
        H
          {
            counts = [||];
            base = 0;
            n = 0;
            nonpos = 0;
            m = { mean = 0.0; m2 = 0.0; lo = infinity; hi = neg_infinity };
          })
      (function H _ as i -> i | C _ | G _ -> kind_error name "histogram")
  with
  | H h -> h
  | C _ | G _ -> assert false

module Counter = struct
  let incr c = c.c <- c.c + 1
  let add c n = c.c <- c.c + n
  let value c = c.c
end

module Gauge = struct
  let set g v = g.g <- v
  let add g v = g.g <- g.g + v
  let value g = g.g
end

module Histogram = struct
  let bucket v =
    Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) shift)

  let bucket_low b =
    Int64.float_of_bits (Int64.shift_left (Int64.of_int b) shift)

  (* Widen [counts] to cover bucket [b], at least doubling it at the end
     [b] falls off, then count [b]. *)
  let add_widened h b =
    let len = Array.length h.counts in
    let base, len' =
      if len = 0 then (b, 1 lsl sub_bits)
      else if b < h.base then
        let base = Int.max 0 (Int.min b (h.base - len)) in
        (base, h.base + len - base)
      else (h.base, Int.max (2 * len) (b - h.base + 1))
    in
    let counts = Array.make len' 0 in
    if len > 0 then Array.blit h.counts 0 counts (h.base - base) len;
    counts.(b - base) <- 1;
    h.counts <- counts;
    h.base <- base

  let[@inline] observe h v =
    let n = h.n + 1 in
    h.n <- n;
    let m = h.m in
    let d = v -. m.mean in
    m.mean <- m.mean +. (d /. float_of_int n);
    m.m2 <- m.m2 +. (d *. (v -. m.mean));
    if v < m.lo then m.lo <- v;
    if v > m.hi then m.hi <- v;
    if v > 0.0 then begin
      let b = bucket v in
      let i = b - h.base in
      if i >= 0 && i < Array.length h.counts then
        h.counts.(i) <- h.counts.(i) + 1
      else add_widened h b
    end
    else h.nonpos <- h.nonpos + 1

  (* [observe] is inlined here, so the converted value is never boxed *)
  let observe_us h ns = observe h (float_of_int ns /. 1e3)

  let count h = h.n

  let percentiles = [| 25.0; 50.0; 75.0; 95.0; 99.0; 99.9 |]

  (* One cumulative pass: each percentile is the lowest value of the
     bucket holding its nearest-rank order statistic, clamped to the
     exact [min, max]; the non-positive values report 0 so clamped. *)
  let quantiles h =
    let m = h.m in
    let clamp v = Float.min m.hi (Float.max m.lo v) in
    let out = Array.make (Array.length percentiles) 0.0 in
    let k = ref 0 and seen = ref 0 in
    let take v c =
      seen := !seen + c;
      while
        !k < Array.length percentiles
        && Stats.nearest_rank percentiles.(!k) h.n < !seen
      do
        out.(!k) <- clamp v;
        incr k
      done
    in
    take 0.0 h.nonpos;
    Array.iteri (fun i c -> if c > 0 then take (bucket_low (h.base + i)) c)
      h.counts;
    out

  let summary h =
    if h.n = 0 then None
    else
      let q = quantiles h and m = h.m in
      (* qualified [min]/[max] labels: the hot-path lint reads a bare
         [min]/[max] as the polymorphic function *)
      Some
        {
          Stats.count = h.n;
          mean = m.mean;
          stddev = sqrt (m.m2 /. float_of_int h.n);
          Stats.min = m.lo;
          p25 = q.(0);
          median = q.(1);
          p75 = q.(2);
          p95 = q.(3);
          p99 = q.(4);
          p999 = q.(5);
          Stats.max = m.hi;
        }
end

let counter_value t name =
  match Stbl.find_opt t.tbl name with Some (C c) -> c.c | _ -> 0

let gauge_value t name =
  match Stbl.find_opt t.tbl name with Some (G g) -> g.g | _ -> 0

let histogram_summary t name =
  match Stbl.find_opt t.tbl name with
  | Some (H h) -> Histogram.summary h
  | _ -> None

let sorted_bindings t =
  Stbl.fold (fun k v acc -> (k, v) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let names t = List.map fst (sorted_bindings t)

(* ------------------------------------------------------------------ *)
(* Rendering.  Hand-rolled JSON: names are dotted identifiers (no
   escaping beyond the standard string rules), values are ints and
   finite floats. *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let obj b fields =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, render) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Buffer.add_string b (json_escape k);
      Buffer.add_string b "\":";
      render b)
    fields;
  Buffer.add_char b '}'

let summary_fields (s : Stats.summary) =
  [
    ("count", fun b -> Buffer.add_string b (string_of_int s.count));
    ("mean", fun b -> Buffer.add_string b (json_float s.mean));
    ("min", fun b -> Buffer.add_string b (json_float s.min));
    ("p25", fun b -> Buffer.add_string b (json_float s.p25));
    ("p50", fun b -> Buffer.add_string b (json_float s.median));
    ("p75", fun b -> Buffer.add_string b (json_float s.p75));
    ("p95", fun b -> Buffer.add_string b (json_float s.p95));
    ("p99", fun b -> Buffer.add_string b (json_float s.p99));
    ("p999", fun b -> Buffer.add_string b (json_float s.p999));
    ("max", fun b -> Buffer.add_string b (json_float s.max));
  ]

let to_json t =
  let bindings = sorted_bindings t in
  let pick f = List.filter_map f bindings in
  let counters =
    pick (function k, C c -> Some (k, c.c) | _ -> None)
  and gauges = pick (function k, G g -> Some (k, g.g) | _ -> None)
  and hists = pick (function k, H h -> Some (k, h) | _ -> None) in
  let b = Buffer.create 1024 in
  obj b
    [
      ( "counters",
        fun b ->
          obj b
            (List.map
               (fun (k, v) ->
                 (k, fun b -> Buffer.add_string b (string_of_int v)))
               counters) );
      ( "gauges",
        fun b ->
          obj b
            (List.map
               (fun (k, v) ->
                 (k, fun b -> Buffer.add_string b (string_of_int v)))
               gauges) );
      ( "histograms",
        fun b ->
          obj b
            (List.filter_map
               (fun (k, h) ->
                 Option.map
                   (fun s -> (k, fun b -> obj b (summary_fields s)))
                   (Histogram.summary h))
               hists) );
    ];
  Buffer.contents b

let dump t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (k, i) ->
      match i with
      | C c -> Buffer.add_string b (Printf.sprintf "%-48s %d\n" k c.c)
      | G g -> Buffer.add_string b (Printf.sprintf "%-48s %d\n" k g.g)
      | H h -> (
        match Histogram.summary h with
        | None -> Buffer.add_string b (Printf.sprintf "%-48s (empty)\n" k)
        | Some s ->
          Buffer.add_string b
            (Format.asprintf "%-48s %a\n" k Stats.pp_summary s)))
    (sorted_bindings t);
  Buffer.contents b
