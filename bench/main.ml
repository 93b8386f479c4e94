(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (§9), plus the failover-latency and ablation extensions.

     dune exec bench/main.exe               # everything, full sizes
     dune exec bench/main.exe -- --quick    # reduced sizes/trials
     dune exec bench/main.exe -- --exp fig5 # one experiment *)

open Cmdliner
open Bench_lib

type which =
  | All
  | Setup
  | Fig3
  | Fig4
  | Fig5
  | Fig6
  | Failover_exp
  | Ablation
  | Chain_exp
  | Scale_exp
  | Micro_exp
  | Soak_exp
  | Reintegration_exp
  | Pool_exp
  | Threetier_exp
  | Highconn_exp
  | Fleet_exp

let which_of_string = function
  | "all" -> Ok All
  | "setup" -> Ok Setup
  | "fig3" -> Ok Fig3
  | "fig4" -> Ok Fig4
  | "fig5" -> Ok Fig5
  | "fig6" -> Ok Fig6
  | "failover" -> Ok Failover_exp
  | "ablation" -> Ok Ablation
  | "chain" -> Ok Chain_exp
  | "scale" -> Ok Scale_exp
  | "micro" -> Ok Micro_exp
  | "soak" -> Ok Soak_exp
  | "reintegration" -> Ok Reintegration_exp
  | "pool" -> Ok Pool_exp
  | "threetier" -> Ok Threetier_exp
  | "highconn" -> Ok Highconn_exp
  | "fleet" -> Ok Fleet_exp
  | s -> Error (`Msg ("unknown experiment: " ^ s))

let which_conv =
  Arg.conv
    ( which_of_string,
      fun fmt w ->
        Format.pp_print_string fmt
          (match w with
          | All -> "all"
          | Setup -> "setup"
          | Fig3 -> "fig3"
          | Fig4 -> "fig4"
          | Fig5 -> "fig5"
          | Fig6 -> "fig6"
          | Failover_exp -> "failover"
          | Ablation -> "ablation"
          | Chain_exp -> "chain"
          | Scale_exp -> "scale"
          | Micro_exp -> "micro"
          | Soak_exp -> "soak"
          | Reintegration_exp -> "reintegration"
          | Pool_exp -> "pool"
          | Threetier_exp -> "threetier"
          | Highconn_exp -> "highconn"
          | Fleet_exp -> "fleet") )

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
  let fig_trials = if quick then 1 else 3 in
  let sizes =
    if quick then [ 64; 1024; 16384; 65536; 262144; 1048576 ]
    else Harness.fig34_sizes
  in
  let stream_size = (if quick then 10 else 100) * (1 lsl 20) in
  (* CPU time of this process and of the children E13 forks *)
  let cpu () =
    let t = Unix.times () in
    t.tms_utime +. t.tms_stime +. t.tms_cutime +. t.tms_cstime
  in
  let t0 = cpu () in
  let should w = which = All || which = w in
  if should Setup then Exp_setup.run_exp ~trials:(if quick then 20 else 100);
  if should Fig3 then Exp_fig3.run_exp ~sizes ~trials:fig_trials;
  if should Fig4 then Exp_fig4.run_exp ~sizes ~trials:fig_trials;
  if should Fig5 then Exp_fig5.run_exp ~size:stream_size;
  if should Fig6 then Exp_fig6.run_exp ~trials:fig_trials;
  if should Failover_exp then
    Exp_failover.run_exp ~trials:(if quick then 3 else 7);
  if should Ablation then Exp_ablation.run_exp ~trials:(if quick then 3 else 7);
  if should Chain_exp then Exp_chain.run_exp ~trials:(if quick then 3 else 5);
  if should Scale_exp then
    Exp_scale.run_exp
      ~conns:(if quick then 64 else 256)
      ~reply_size:(if quick then 4096 else 65536)
      ~trials:(if quick then 2 else 4);
  if should Micro_exp then Micro.run_exp ();
  if should Reintegration_exp then
    Exp_reintegration.run_exp
      ~conn_counts:(if quick then [ 4; 16 ] else [ 10; 100; 1000 ])
      ~loss_rates:(if loss_rates = [] then [ 0.0 ] else loss_rates)
      ~big:(if quick then 0 else 10_000)
      ~trials:(if quick then 2 else 3);
  if should Pool_exp then
    Exp_pool.run_exp
      ~pool_sizes:(if quick then [ 3; 4 ] else [ 3; 4; 5 ])
      ~trials:(if quick then 2 else 3);
  if should Threetier_exp then
    Exp_threetier.run_exp
      ~cycle_counts:(if quick then [ 3 ] else [ 3; 6 ])
      ~trials:(if quick then 2 else 3);
  if should Highconn_exp then
    Exp_highconn.run_exp
      ~conn_counts:(if quick then [ 100; 400 ] else [ 1000; 4000; 10000 ])
      ~trials:(if quick then 1 else 2);
  if should Fleet_exp then
    Exp_fleet.run_exp
      ~pools:(if quick then 4 else 16)
      ~conns:(if quick then 256 else 2048)
      ~cycles:(if quick then 2 else 8)
      ~trials:(if quick then 1 else 2);
  let soak_failures =
    if should Soak_exp then
      Exp_soak.run_exp
        ~seeds:(if quick then min seeds 20 else seeds)
        ~first_seed ?report:soak_report ()
    else 0
  in
  Printf.printf "\n[bench completed in %.1fs cpu time]\n%!"
    (cpu () -. t0);
  if soak_failures > 0 then exit 1

let which_arg =
  Arg.(value & opt which_conv All & info [ "exp" ] ~docv:"EXP"
         ~doc:"Experiment to run: all, setup, fig3, fig4, fig5, fig6, \
               failover, ablation, chain, scale, micro, soak, \
               reintegration, pool, threetier, highconn, fleet.")

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
               --seeds 1 --first-seed SEED.")

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
