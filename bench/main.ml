(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (§9), plus the failover-latency and ablation extensions.

     dune exec bench/main.exe               # everything, full sizes
     dune exec bench/main.exe -- --quick    # reduced sizes/trials
     dune exec bench/main.exe -- --exp fig5 # one experiment *)

open Cmdliner
open Bench_lib

type opts = {
  quick : bool;
  seeds : int;
  first_seed : int;
  soak_report : string option;
  loss_rates : float list;
}

let fig_trials o = if o.quick then 1 else 3

let fig_sizes o =
  if o.quick then [ 64; 1024; 16384; 65536; 262144; 1048576 ]
  else Harness.fig34_sizes

(* Every experiment, in the order [--exp all] runs them.  A runner
   returns its number of failed scenarios; only the soak can fail. *)
let experiments : (string * (opts -> int)) list =
  let plain f o =
    f o;
    0
  in
  let q o ~quick ~full = if o.quick then quick else full in
  [
    ( "setup",
      plain (fun o -> Exp_setup.run_exp ~trials:(q o ~quick:20 ~full:100)) );
    ( "fig3",
      plain (fun o ->
          Exp_fig3.run_exp ~sizes:(fig_sizes o) ~trials:(fig_trials o)) );
    ( "fig4",
      plain (fun o ->
          Exp_fig4.run_exp ~sizes:(fig_sizes o) ~trials:(fig_trials o)) );
    ( "fig5",
      plain (fun o ->
          Exp_fig5.run_exp ~size:(q o ~quick:10 ~full:100 * (1 lsl 20))) );
    ("fig6", plain (fun o -> Exp_fig6.run_exp ~trials:(fig_trials o)));
    ( "failover",
      plain (fun o -> Exp_failover.run_exp ~trials:(q o ~quick:3 ~full:7)) );
    ( "ablation",
      plain (fun o -> Exp_ablation.run_exp ~trials:(q o ~quick:3 ~full:7)) );
    ( "chain",
      plain (fun o -> Exp_chain.run_exp ~trials:(q o ~quick:3 ~full:5)) );
    ("micro", plain (fun _ -> Micro.run_exp ()));
    ( "reintegration",
      plain (fun o ->
          Exp_reintegration.run_exp
            ~conn_counts:(q o ~quick:[ 4; 16 ] ~full:[ 10; 100; 1000 ])
            ~loss_rates:(if o.loss_rates = [] then [ 0.0 ] else o.loss_rates)
            ~big:(q o ~quick:0 ~full:10_000)
            ~trials:(q o ~quick:2 ~full:3)) );
    ( "pool",
      plain (fun o ->
          Exp_pool.run_exp
            ~pool_sizes:(q o ~quick:[ 3; 4 ] ~full:[ 3; 4; 5 ])
            ~trials:(q o ~quick:2 ~full:3)) );
    ( "threetier",
      plain (fun o ->
          Exp_threetier.run_exp
            ~cycle_counts:(q o ~quick:[ 3 ] ~full:[ 3; 6 ])
            ~trials:(q o ~quick:2 ~full:3)) );
    ( "fleet",
      plain (fun o ->
          Exp_fleet.run_exp ~pools:(q o ~quick:4 ~full:16)
            ~conns:(q o ~quick:256 ~full:2048)
            ~cycles:(q o ~quick:2 ~full:8)
            ~trials:(q o ~quick:1 ~full:2)) );
    ( "soak",
      fun o ->
        Exp_soak.run_exp
          ~seeds:(if o.quick then min o.seeds 20 else o.seeds)
          ~first_seed:o.first_seed ?report:o.soak_report () );
  ]

let exp_names = "all" :: List.map fst experiments

let which_conv =
  Arg.conv
    ( (fun s ->
        if List.mem s exp_names then Ok s
        else Error (`Msg ("unknown experiment: " ^ s))),
      Format.pp_print_string )

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    Sys.mkdir dir 0o755
  end

let run which quick metrics_dir jobs seeds first_seed soak_report loss_rates =
  (match metrics_dir with
  | Some dir ->
    mkdir_p dir;
    Harness.metrics_dir := Some dir
  | None -> ());
  let jobs =
    if jobs = 0 then Tcpfo_util.Domain_pool.default_jobs () else max 1 jobs
  in
  Harness.jobs := jobs;
  let opts = { quick; seeds; first_seed; soak_report; loss_rates } in
  let cpu () =
    let t = Unix.times () in
    t.tms_utime +. t.tms_stime
  in
  let t0 = cpu () in
  let failures =
    List.fold_left
      (fun acc (name, runner) ->
        if which = "all" || which = name then acc + runner opts else acc)
      0 experiments
  in
  Printf.printf "\n[bench completed in %.1fs cpu time]\n%!"
    (cpu () -. t0);
  if failures > 0 then exit 1

let which_arg =
  Arg.(value & opt which_conv "all" & info [ "exp" ] ~docv:"EXP"
         ~doc:("Experiment to run: " ^ String.concat ", " exp_names ^ "."))

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sizes and trial counts.")

let metrics_dir_arg =
  Arg.(value & opt (some string) None & info [ "metrics-dir" ] ~docv:"DIR"
         ~doc:"Write each experiment's metrics snapshot to \
               DIR/<exp>.metrics.json instead of stdout.")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Fan independent trials out over N OCaml domains (0 = one \
               per recommended core).  Results and metrics snapshots are \
               byte-identical to --jobs 1; only wall-clock changes.")

let seeds_arg =
  Arg.(value & opt int 200 & info [ "seeds" ] ~docv:"N"
         ~doc:"Number of seeded scenarios the soak experiment runs \
               (seeds are consecutive from --first-seed).")

let first_seed_arg =
  Arg.(value & opt int 1 & info [ "first-seed" ] ~docv:"SEED"
         ~doc:"First soak seed; replay a single failing scenario with \
               `tcpfo_cli run --seed SEED --trace'.")

let soak_report_arg =
  Arg.(value & opt (some string) None & info [ "soak-report" ] ~docv:"FILE"
         ~doc:"Write soak invariant failures (with replay instructions) \
               to FILE when any occur.")

let loss_arg =
  Arg.(value & opt (list float) [ 0.0 ] & info [ "loss" ] ~docv:"P,..."
         ~doc:"Control-channel loss rates the reintegration experiment \
               sweeps (comma-separated probabilities, e.g. 0,0.25): each \
               rate runs the hot state transfers under a loss burst on \
               the LAN, reporting transfer latency and chunk \
               retransmissions.")

let cmd =
  Cmd.v
    (Cmd.info "tcpfo-bench"
       ~doc:"Reproduce the evaluation of 'Transparent TCP Connection \
             Failover' (DSN 2003)")
    Term.(const run $ which_arg $ quick_arg $ metrics_dir_arg $ jobs_arg
          $ seeds_arg $ first_seed_arg $ soak_report_arg $ loss_arg)

let () = exit (Cmd.eval cmd)
