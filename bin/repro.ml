(* repro -- regenerate every table and figure of the paper's evaluation.

   Subcommands map one-to-one onto the artefacts of Section VIII; `all`
   produces everything plus the side-by-side comparison used in
   EXPERIMENTS.md. *)

open Cmdliner

let scale_of rows cols frames =
  { Study.Scale.rows; cols; frames }

let scale_args =
  let rows =
    Arg.(value & opt int 1080 & info [ "rows" ] ~doc:"Frame height.")
  in
  let cols =
    Arg.(value & opt int 1920 & info [ "cols" ] ~doc:"Frame width.")
  in
  let frames =
    Arg.(value & opt int 300 & info [ "frames" ] ~doc:"Iterations.")
  in
  Term.(const scale_of $ rows $ cols $ frames)

(* --domains N resizes the shared pool and makes functional kernel
   execution run on it; 0 (the default) keeps the pool at the
   machine's recommended domain count with sequential execution. *)
let apply_domains = function
  | None -> ()
  | Some n when n <= 0 ->
      Printf.eprintf "repro: --domains must be a positive integer (got %d)\n" n;
      exit 2
  | Some n ->
      Gpu.Pool.set_default_domains n;
      Gpu.Context.set_default_mode
        (if n <= 1 then Gpu.Context.Sequential else Gpu.Context.Parallel n)

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ]
        ~doc:
          "OCaml domains used for the study's plane/measurement \
           parallelism and for functional kernel execution (must be \
           positive; 1 forces fully sequential runs, omit to keep the \
           machine default).")

let perf_lint_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("off", Analysis.Config.Off); ("lint", Analysis.Config.Lint);
             ("strict", Analysis.Config.Strict) ])
        Analysis.Config.Lint
    & info [ "perf-lint" ]
        ~doc:
          "Performance-lint gate applied wherever plans are compiled: \
           off, lint (record ranked coalescing/divergence findings as \
           metrics, the default) or strict (fail on error-severity \
           lints).")

let opt_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("off", Optimizer.Mode.Off);
             ("fuse", Optimizer.Mode.Fuse);
             ("auto", Optimizer.Mode.Auto);
           ])
        Optimizer.Mode.Auto
    & info [ "opt" ]
        ~doc:
          "Plan optimisation in both GPU pipelines: $(b,off) disables \
           rewrites, $(b,fuse) applies the fixed fusion pass (with \
           device-buffer liveness reuse), and $(b,auto) (default) \
           autotunes the plan under the device cost model (memoised \
           per shape).")

let trace_arg =
  Arg.(
    value
    & opt ~vopt:(Some "trace.json") (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Write a Chrome trace-event JSON file (load it at \
           https://ui.perfetto.dev) to $(docv): modelled-device track \
           groups plus host wall-clock spans, one track per domain.")

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "metrics.txt") (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Dump the metrics registry (cache hit rates, pool counters, \
           transfer volumes) to $(docv); a .json suffix selects JSON \
           rendering instead of text.")

(* Tracing must be enabled before any instrumented work runs; artefacts
   are written after, even if the run fails part-way. *)
let with_obs ~trace ~metrics f =
  if trace <> None then Obs.Tracer.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Option.iter Gpu.Trace_export.write trace;
      Option.iter Obs.Metrics.write_file metrics)
    f

let run_fig2 scale =
  let open Study.Scale in
  Printf.printf
    "Figure 2: downscaler geometry\n\
    \  input:            %d x %d\n\
    \  after horizontal: %d x %d   (packets of 8 columns -> 3)\n\
    \  after vertical:   %d x %d   (packets of 9 rows -> 4)\n"
    scale.rows scale.cols scale.rows (h_out_cols scale) (v_out_rows scale)
    (h_out_cols scale)

let run_fig8 scale =
  print_string "Figure 8: code after WITH-loop folding\n\n";
  print_string (Study.Experiments.fig8 ~scale ())

let run_fig9 scale =
  print_string (Study.Report.fig9 (Study.Experiments.fig9 ~scale ()))

let run_table1 scale =
  print_string
    (Study.Report.table
       ~title:
         "Table I: kernel execution and data transfer times of GASPARD2 \
          implementation"
       (Study.Experiments.table1 ~scale ()))

let run_table2 scale =
  print_string
    (Study.Report.table
       ~title:
         "Table II: kernel execution and data transfer times of SAC \
          implementation"
       (Study.Experiments.table2 ~scale ()))

let run_fig12 scale =
  print_string (Study.Report.fig12 (Study.Experiments.fig12 ~scale ()))

let run_claims scale =
  print_string (Study.Report.claims (Study.Experiments.claims ~scale ()))

let run_cif _scale =
  let s = Study.Experiments.cif_scenario () in
  Printf.printf
    "Section III scenario: %s\n\
    \  Gaspard2: %.2f s   SAC: %.2f s   budget: %.0f s\n\
    \  real-time on both routes: %b\n"
    s.Study.Experiments.description s.Study.Experiments.gaspard_s
    s.Study.Experiments.sac_s s.Study.Experiments.budget_s
    s.Study.Experiments.both_realtime

let run_validate () =
  print_string (Study.Report.validation (Study.Experiments.validate ()))

(* Non-zero exit on error findings so the subcommand works as a CI
   gate; set by run_lint, consumed at exit. *)
let lint_errors = ref 0

let run_perf_lint scale =
  let reports = Study.Experiments.perf_lint ~scale () in
  print_string (Study.Report.perf_lint reports);
  lint_errors :=
    List.fold_left
      (fun acc (r : Study.Experiments.perf_report) ->
        acc + Analysis.Finding.errors r.Study.Experiments.pl_findings)
      0 reports

let run_lint scale =
  let reports = Study.Experiments.lint ~scale () in
  print_string (Study.Report.lint reports);
  lint_errors :=
    List.fold_left
      (fun acc (r : Study.Experiments.lint_report) ->
        acc + Analysis.Finding.errors r.Study.Experiments.findings)
      0 reports

let run_fusion scale =
  print_string (Study.Report.fusion (Study.Experiments.fusion ~scale ()))

(* The autotuning ablation sweeps its own shape list (the cost model is
   shape-sensitive), so the --rows/--cols scale is ignored here. *)
let run_autotune _scale =
  print_string (Study.Report.autotune (Study.Experiments.autotune ()))

let run_overlap scale =
  print_string (Study.Report.overlap (Study.Experiments.overlap ~scale ()))

let run_devices scale =
  print_string (Study.Report.devices (Study.Experiments.devices ~scale ()))

let run_side_by_side scale =
  print_string
    (Study.Report.side_by_side ~title:"Table I (paper vs simulated)"
       ~paper:Study.Report.paper_table1_reference
       ~ours:(Study.Experiments.table1 ~scale ()));
  print_newline ();
  print_string
    (Study.Report.side_by_side ~title:"Table II (paper vs simulated)"
       ~paper:Study.Report.paper_table2_reference
       ~ours:(Study.Experiments.table2 ~scale ()))

let run_all scale =
  run_fig2 scale;
  print_newline ();
  run_fig8 scale;
  print_newline ();
  run_fig9 scale;
  print_newline ();
  run_table1 scale;
  print_newline ();
  run_table2 scale;
  print_newline ();
  run_fig12 scale;
  print_newline ();
  run_claims scale;
  print_newline ();
  run_side_by_side scale;
  print_newline ();
  run_fusion scale;
  print_newline ();
  run_overlap scale;
  print_newline ();
  run_devices scale;
  print_newline ();
  run_validate ()

let with_domains f domains opt perf_lint trace metrics scale =
  (match
     Video.Format.check ~rows:scale.Study.Scale.rows ~cols:scale.Study.Scale.cols
   with
  | Ok () -> ()
  | Error m ->
      Printf.eprintf "repro: %s\n" m;
      exit 2);
  apply_domains domains;
  Optimizer.Mode.set_default opt;
  Analysis.Config.set_perf_mode perf_lint;
  with_obs ~trace ~metrics (fun () -> f scale)

let cmd_of name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (with_domains f) $ domains_arg $ opt_arg $ perf_lint_arg
      $ trace_arg $ metrics_arg $ scale_args)

let () =
  let doc = "Reproduce the evaluation of the SAC/ArrayOL GPU study" in
  let default =
    Term.(
      const (with_domains run_all) $ domains_arg $ opt_arg $ perf_lint_arg
      $ trace_arg $ metrics_arg $ scale_args)
  in
  let cmd =
    Cmd.group ~default (Cmd.info "repro" ~doc)
      [
        cmd_of "fig2" "Downscaler geometry (Figure 2)" run_fig2;
        cmd_of "fig8" "Folded WITH-loop (Figure 8)" run_fig8;
        cmd_of "fig9" "Filter execution times (Figure 9)" run_fig9;
        cmd_of "table1" "Gaspard2 profile (Table I)" run_table1;
        cmd_of "table2" "SAC profile (Table II)" run_table2;
        cmd_of "fig12" "Operation comparison (Figure 12)" run_fig12;
        cmd_of "claims" "Conclusion claims (Section IX)" run_claims;
        cmd_of "cif" "Section III CIF workload (2000 frames)" run_cif;
        cmd_of "compare" "Paper vs simulated tables" run_side_by_side;
        cmd_of "fusion"
          "Kernel-fusion ablation: kernels, launches, intermediate \
           buffers, peak device memory and bit-identity with --opt \
           off vs fuse"
          run_fusion;
        cmd_of "autotune"
          "Plan-autotuning ablation: modelled frame time under --opt \
           off, fuse and auto for both pipelines across shapes, with \
           the winning rewrite sequence and a bit-identity check"
          run_autotune;
        cmd_of "devices"
          "Multi-device sharding ablation: frames scheduler-placed \
           across 1/2/4 simulated devices with peer-link gather, \
           modelled makespan and the transfer volume split by link \
           type, plus a sharded bit-identity check"
          run_devices;
        cmd_of "overlap"
          "Stream-overlap model: what double-buffered transfers would \
           recover in each pipeline"
          run_overlap;
        cmd_of "perf-lint"
          "Static memory-behaviour analysis of every kernel both \
           pipelines generate: proven access class, burst, coalescing \
           efficiency and modelled bandwidth per buffer stream, with \
           the ranked perf findings; exits non-zero on error findings"
          run_perf_lint;
        cmd_of "kernel-lint"
          "Static analysis of every kernel both pipelines generate \
           (bounds, races, transfer residency); exits non-zero on \
           error findings"
          run_lint;
        Cmd.v
          (Cmd.info "validate" ~doc:"Cross-pipeline functional validation")
          Term.(
            const (fun n opt perf_lint trace metrics () ->
                apply_domains n;
                Optimizer.Mode.set_default opt;
                Analysis.Config.set_perf_mode perf_lint;
                with_obs ~trace ~metrics run_validate)
            $ domains_arg $ opt_arg $ perf_lint_arg $ trace_arg
            $ metrics_arg $ const ());
      ]
  in
  let code = Cmd.eval cmd in
  exit (if code = 0 && !lint_errors > 0 then 1 else code)
