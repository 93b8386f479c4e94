(* Deterministic fan-out of independent tasks across OCaml 5 domains.

   [map ~jobs n f] computes [f 0 .. f (n-1)] on up to [jobs] domains and
   returns the results in index order, so callers observe exactly the
   same value a serial [List.init] would produce.  Tasks are claimed from
   a shared atomic counter (work stealing by index), which keeps the
   domains busy even when task durations are skewed — bench trials with
   large message sizes take orders of magnitude longer than small ones.

   With [jobs = 1] (or [n <= 1]) no domain is ever spawned and [f] runs
   in the calling domain in ascending index order: the serial path is
   byte-for-byte today's behavior, which the bench harness relies on for
   its [--jobs 1] reference mode.

   Exceptions raised by a task are caught in the worker, carried to the
   caller, and re-raised (with their backtrace) for the smallest failing
   index once every task has settled. *)

type 'a outcome = Value of 'a | Raised of exn * Printexc.raw_backtrace

let serial_map n f =
  let rec go acc i = if i >= n then List.rev acc else go (f i :: acc) (i + 1) in
  go [] 0

let default_jobs () = max 1 (Domain.recommended_domain_count ())

let map ?(jobs = 1) n f =
  if n < 0 then invalid_arg "Domain_pool.map: negative task count";
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then serial_map n f
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          let r =
            try Value (f i)
            with e -> Raised (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r
      done
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    serial_map n (fun i ->
        match results.(i) with
        | Some (Value v) -> v
        | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false (* every index was claimed and joined *))
  end
