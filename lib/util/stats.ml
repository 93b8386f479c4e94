type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let nearest_rank p n =
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
  Int.max 0 (Int.min (n - 1) rank)

(* stable, so equal-comparing samples (0.0 and -0.0) keep list order *)
let sorted_array xs =
  let a = Array.of_list xs in
  Array.stable_sort Float.compare a;
  a

let at p sorted = sorted.(nearest_rank p (Array.length sorted))

let percentile p xs =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty"
  | _ -> at p (sorted_array xs)

let median xs = percentile 50.0 xs

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty"
  | _ ->
    let sorted = sorted_array xs in
    let n = Array.length sorted in
    let m = mean xs in
    let var =
      List.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs
      /. float_of_int n
    in
    {
      count = n;
      mean = m;
      stddev = sqrt var;
      min = sorted.(0);
      p25 = at 25.0 sorted;
      median = at 50.0 sorted;
      p75 = at 75.0 sorted;
      p95 = at 95.0 sorted;
      p99 = at 99.0 sorted;
      p999 = at 99.9 sorted;
      max = sorted.(n - 1);
    }

let pp_summary fmt s =
  Format.fprintf fmt
    "n=%d mean=%.2f sd=%.2f min=%.2f p50=%.2f p95=%.2f p99=%.2f p999=%.2f \
     max=%.2f"
    s.count s.mean s.stddev s.min s.median s.p95 s.p99 s.p999 s.max
