(* perfbench worker: one process per measured unit of work.

   run.py spawns this program once per unit (one cold compile, one
   paper pass, one serving session), so process-wide caches --
   Gpu.Kir's shared prepare memo, Gpu.Context's global cost table and
   Optimizer.Cache -- start empty for every unit, exactly as for a user
   invoking sacc, gaspardcl, repro or served.  Each subcommand checks its
   own outputs and prints one JSON object on stdout.

   Untraced units call the public entry points those CLIs call.  Traced
   units (--traced) split the same work into one public call per layer,
   each wrapped in a span of the benchmark's own; the layer ledger (self
   time = span minus child spans) goes into the JSON and every span,
   the program's included, into a Perfetto trace. *)

let now_us = Obs.Tracer.now_us

(* ------------------------------------------------------------------ *)
(* Spans and the layer ledger                                          *)
(* ------------------------------------------------------------------ *)

type entry = {
  mutable incl_us : float;
  mutable self_us : float;
  mutable calls : int;
  mutable samples : float list;  (** inclusive duration per call, us *)
}

let traced = ref false

let ledger : (string, entry) Hashtbl.t = Hashtbl.create 32

(* Child-time accumulators of the open spans, innermost first.  Spans
   are only opened on the main domain. *)
let open_spans : float ref list ref = ref []

let entry name =
  match Hashtbl.find_opt ledger name with
  | Some e -> e
  | None ->
      let e = { incl_us = 0.; self_us = 0.; calls = 0; samples = [] } in
      Hashtbl.replace ledger name e;
      e

let span name f =
  if not !traced then f ()
  else begin
    let children = ref 0. in
    open_spans := children :: !open_spans;
    let t0 = now_us () in
    let close () =
      let dur = now_us () -. t0 in
      open_spans := List.tl !open_spans;
      (match !open_spans with p :: _ -> p := !p +. dur | [] -> ());
      let e = entry name in
      e.incl_us <- e.incl_us +. dur;
      e.self_us <- e.self_us +. (dur -. !children);
      e.calls <- e.calls + 1;
      e.samples <- dur :: e.samples;
      Obs.Tracer.emit ~cat:"perfbench" name ~start_us:t0 ~dur_us:dur
    in
    Fun.protect ~finally:close f
  end

(* ------------------------------------------------------------------ *)
(* Counters, GC, memory                                                *)
(* ------------------------------------------------------------------ *)

let counter_names =
  [
    "optimizer.candidates"; "optimizer.rules_applied";
    "optimizer.verify_rejections"; "optimizer.plan_cache_hits";
    "optimizer.plan_cache_misses"; "gpu.cost_static"; "gpu.cost_hits";
    "gpu.launches"; "gpu.h2d_bytes"; "gpu.d2h_bytes"; "pool.tasks";
    "pool.helped_tasks"; "analysis.kernels_checked"; "serve.retries";
    "serve.batches"; "serve.batched_frames"; "serve.completed";
  ]

let histogram_names =
  [ "serve.phase.queue_wait_us"; "serve.phase.batch_gather_us";
    "serve.phase.execute_us" ]

type snapshot = {
  counters : (string * int) list;
  histograms : (string * (int * int)) list;  (** count, sum *)
  gc : Gc.stat;
}

let snapshot () =
  {
    counters =
      List.map
        (fun n -> (n, Option.value ~default:0 (Obs.Metrics.find n)))
        counter_names;
    histograms =
      List.map
        (fun n ->
          ( n,
            match Obs.Metrics.histogram_snapshot n with
            | Some (count, sum, _) -> (count, sum)
            | None -> (0, 0) ))
        histogram_names;
    gc = Gc.quick_stat ();
  }

(* Counter, histogram and GC deltas since [before], as named numbers. *)
let deltas before =
  let after = snapshot () in
  List.map2 (fun (n, a) (_, b) -> (n, float_of_int (b - a))) before.counters
    after.counters
  @ List.concat
      (List.map2
         (fun (n, (c0, s0)) (_, (c1, s1)) ->
           [ (n ^ ".count", float_of_int (c1 - c0));
             (n ^ ".sum", float_of_int (s1 - s0)) ])
         before.histograms after.histograms)
  @ [
      ( "gc.minor_words",
        after.gc.Gc.minor_words -. before.gc.Gc.minor_words );
      ( "gc.major_words",
        after.gc.Gc.major_words -. before.gc.Gc.major_words );
      ( "gc.major_collections",
        float_of_int
          (after.gc.Gc.major_collections - before.gc.Gc.major_collections) );
    ]

(* Process high-water resident set, from the kernel's own accounting. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
      | _ -> scan ()
      | exception End_of_file -> 0.
    in
    scan ()
  with Sys_error _ -> 0.

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let num x = Obs.Json.Num x

let str s = Obs.Json.Str s

let obj_of_floats kvs = Obs.Json.Obj (List.map (fun (k, v) -> (k, num v)) kvs)

let ledger_json () =
  Obs.Json.Obj
    (Hashtbl.fold
       (fun name e acc ->
         ( name,
           Obs.Json.Obj
             [
               ("incl_ms", num (e.incl_us /. 1e3));
               ("self_ms", num (e.self_us /. 1e3));
               ("calls", num (float_of_int e.calls));
               ( "samples_ms",
                 Obs.Json.Arr
                   (List.rev_map (fun us -> num (us /. 1e3)) e.samples) );
             ] )
         :: acc)
       ledger []
    |> List.sort compare)

(* Failed checks of this unit, in the order they were found. *)
let failures = ref []

let check what ok = if not ok then failures := what :: !failures

let print_result ?trace fields =
  (match trace with
  | Some path when !traced ->
      Obs.Trace.write_file path ~spans:(Obs.Tracer.dump ()) ()
  | _ -> ());
  let fields =
    fields
    @ [
        ("failures", Obs.Json.Arr (List.rev_map str !failures));
        ("peak_rss_mb", num (peak_rss_mb ()));
        ("ledger", ledger_json ());
      ]
  in
  print_endline (Obs.Json.render (Obs.Json.Obj fields))

(* ------------------------------------------------------------------ *)
(* Inputs and output checks                                            *)
(* ------------------------------------------------------------------ *)

(* Frame numbers come from the seed; programs and shapes never do. *)
let frame_no ~seed k = ((seed * 7919) + (k * 104729)) mod 1_000_003

let format ~rows ~cols = { Video.Format.name = "perfbench"; rows; cols }

(* [--fault pixel]: corrupt one output pixel before its check, so the
   self-test can show that a wrong pixel is counted as a failure. *)
let fault = ref ""

let maybe_flip t =
  if !fault <> "pixel" then t
  else begin
    fault := "";
    let t = Ndarray.Tensor.copy t in
    Ndarray.Tensor.set_lin t 0 ((Ndarray.Tensor.get_lin t 0 + 1) land 255);
    t
  end

let planes_equal out reference =
  Ndarray.Tensor.equal Int.equal (maybe_flip out) reference

let sac_param (plan : Sac_cuda.Plan.t) =
  match plan.Sac_cuda.Plan.params with (name, _) :: _ -> name | [] -> "frame"

(* Every plane of a seeded frame through the compiled SAC plan, against
   the golden downscaler. *)
let check_sac ~liveness plan frame =
  let rt = Cuda.Runtime.init () in
  List.for_all
    (fun ch ->
      let plane = Video.Frame.plane frame ch in
      let out =
        (Sac_cuda.Exec.run rt plan ~liveness ~args:[ (sac_param plan, plane) ])
          .Sac_cuda.Exec.result
      in
      planes_equal out (Video.Downscaler.plane plane))
    Video.Frame.channels

let check_gaspard ~liveness gen frame =
  let ctx = Opencl.Runtime.create_context () in
  let outs =
    Mde.Chain.run ctx gen ~liveness
      ~inputs:
        [
          ("r_in", Video.Frame.plane frame Video.Frame.R);
          ("g_in", Video.Frame.plane frame Video.Frame.G);
          ("b_in", Video.Frame.plane frame Video.Frame.B);
        ]
  in
  List.for_all
    (fun (port, ch) ->
      match List.assoc_opt port outs with
      | None -> false
      | Some out ->
          planes_equal out (Video.Downscaler.plane (Video.Frame.plane frame ch)))
    [ ("r_out", Video.Frame.R); ("g_out", Video.Frame.G); ("b_out", Video.Frame.B) ]

(* ------------------------------------------------------------------ *)
(* Compilation, one public call per layer                              *)
(* ------------------------------------------------------------------ *)

let gates_off f =
  let mode = Analysis.Config.mode () and perf = Analysis.Config.perf_mode () in
  Analysis.Config.set_mode Analysis.Config.Off;
  Analysis.Config.set_perf_mode Analysis.Config.Off;
  Fun.protect
    ~finally:(fun () ->
      Analysis.Config.set_mode mode;
      Analysis.Config.set_perf_mode perf)
    f

let gate what = function Ok () -> () | Error m -> check (what ^ ": " ^ m) false

let emitted = ref 0

let emit_sac plan =
  let name = "downscaler" in
  let cu = span "emit.cuda" (fun () -> Sac_cuda.Emit_cu.source ~name plan) in
  let cl =
    span "emit.opencl" (fun () ->
        let s = Sac_opencl.Backend.sources ~name plan in
        s.Sac_opencl.Backend.cl ^ s.Sac_opencl.Backend.host
        ^ s.Sac_opencl.Backend.makefile)
  in
  let metal =
    span "emit.metal" (fun () ->
        let s = Sac_metal.Backend.sources ~name plan in
        s.Sac_metal.Backend.metal ^ s.Sac_metal.Backend.host
        ^ s.Sac_metal.Backend.makefile)
  in
  emitted := !emitted + String.length cu + String.length cl + String.length metal

let gaspard_kernels (gen : Mde.Codegen.generated) =
  List.map
    (fun (kt : Mde.Codegen.kernel_task) -> (kt.Mde.Codegen.kernel, kt.Mde.Codegen.grid))
    gen.Mde.Codegen.kernel_tasks

let emit_gaspard (gen : Mde.Codegen.generated) =
  let name = gen.Mde.Codegen.model_name in
  let kernels = gaspard_kernels gen in
  let cu =
    span "emit.cuda" (fun () ->
        String.concat "\n"
          (List.map (fun (k, grid) -> Cuda.Emit.kernel ~grid k) kernels))
  in
  let cl =
    span "emit.opencl" (fun () ->
        let g = Mde.Codegen.render gen in
        g.Mde.Codegen.cl_source ^ g.Mde.Codegen.host_source ^ g.Mde.Codegen.makefile)
  in
  let metal = span "emit.metal" (fun () -> Metal.Emit.metal_file ~name kernels) in
  emitted := !emitted + String.length cu + String.length cl + String.length metal

let sac_report = ref None

(* SAC -> CUDA: what [sacc --opt <opt>] runs.  Traced, the same work as
   one call per layer: Compile.plan runs with its gates switched off so
   that the explicit gate call after tuning checks the final plan once,
   as plan_of_source does. *)
let compile_sac ~opt src =
  let plan =
    if not !traced then begin
      let plan, report = Sac_cuda.Compile.plan_of_source ~opt src ~entry:"main" in
      sac_report := Some report;
      plan
    end
    else begin
      let prog = span "sac.parse" (fun () -> Sac.Parser.program src) in
      let fd, report =
        span "sac.optimize" (fun () -> Sac.Pipeline.optimize prog ~entry:"main")
      in
      sac_report := Some report;
      let base =
        gates_off (fun () ->
            span "sac_cuda.plan" (fun () ->
                Sac_cuda.Compile.plan ~opt:Optimizer.Mode.Off fd))
      in
      let plan =
        match opt with
        | Optimizer.Mode.Auto ->
            let plan, fstats, _ =
              span "sac_cuda.tune" (fun () -> Sac_cuda.Autotune.tune base)
            in
            if fstats.Gpu.Fuse.kernels_eliminated > 0 then Gpu.Fuse.record fstats;
            plan
        | _ -> base
      in
      span "analysis.gate.sac" (fun () ->
          gate "sac verify gate" (Sac_cuda.Verify.gate plan);
          gate "sac perf gate" (Sac_cuda.Verify.perf_gate plan));
      plan
    end
  in
  emit_sac plan;
  plan

(* ArrayOL -> OpenCL: what [gaspardcl --opt <opt>] runs. *)
let compile_gaspard ~opt model =
  let gen =
    if not !traced then (
      match Mde.Chain.transform ~opt model with
      | Ok (gen, _) -> gen
      | Error m -> failwith ("transformation chain failed: " ^ m))
    else begin
      let issues =
        span "arrayol.validate" (fun () ->
            Arrayol.Validate.check ~loc:"mde" model.Mde.Marte.application)
      in
      check "arrayol validation" (issues = []);
      let gen =
        span "mde.transform" (fun () ->
            let model = Mde.Marte.allocate_data_parallel model in
            ignore (Arrayol.Schedule.compute model.Mde.Marte.application);
            Mde.Codegen.generate model)
      in
      let gen =
        match opt with
        | Optimizer.Mode.Auto ->
            let gen, fstats, _ =
              span "mde.tune" (fun () -> Mde.Autotune.tune gen)
            in
            if fstats.Gpu.Fuse.kernels_eliminated > 0 then Gpu.Fuse.record fstats;
            gen
        | _ -> gen
      in
      let tasks = gen.Mde.Codegen.kernel_tasks in
      span "analysis.gate.mde" (fun () ->
          gate "mde verify gate" (Mde.Verify.gate ~file:"mde:opencl2verified" tasks);
          gate "mde perf gate"
            (Mde.Verify.perf_gate ~file:"mde:opencl2perflint" tasks));
      gen
    end
  in
  emit_gaspard gen;
  gen

(* One Gpu.Kir.static_cost call per kernel, timed from outside. *)
let time_static_costs kernels =
  List.iter
    (fun (k, grid) ->
      span "gpu.static_cost" (fun () -> ignore (Gpu.Kir.static_cost k ~grid)))
    kernels

let sac_kernels (plan : Sac_cuda.Plan.t) =
  List.concat_map
    (function Sac_cuda.Plan.Device_withloop { kernels; _ } -> kernels | _ -> [])
    plan.Sac_cuda.Plan.items

(* ------------------------------------------------------------------ *)
(* tune: one cold --opt auto compile plus emit                         *)
(* ------------------------------------------------------------------ *)

(* Mirrors of the tuners' private plan fingerprints (the search prunes
   by them and the tuned-plan cache keys on them). *)
let strip_labels (p : Sac_cuda.Plan.t) =
  {
    p with
    Sac_cuda.Plan.items =
      List.map
        (function
          | Sac_cuda.Plan.Device_withloop d ->
              Sac_cuda.Plan.Device_withloop { d with label = "" }
          | it -> it)
        p.Sac_cuda.Plan.items;
  }

let gaspard_fingerprint (gen : Mde.Codegen.generated) =
  Optimizer.Cache.digest
    (gen.Mde.Codegen.kernel_tasks, gen.Mde.Codegen.levels, gen.Mde.Codegen.connections)

exception Not_cached

(* The winning rule path the compile stored in the tuned-plan cache,
   read back by key.  Re-tuning a second compile would not do: its
   replay of a path naming gensym'd targets (interchange:output$51)
   fails on the renumbered plan and falls back to the untuned plan. *)
let cached_rules ~pipeline ~rows ~cols ~device ~digest =
  let key = Optimizer.Cache.key ~pipeline ~rows ~cols ~device ~digest in
  match Optimizer.Cache.find_or_tune ~key (fun () -> raise Not_cached) with
  | tuned -> tuned.Optimizer.Cache.rules
  | exception Not_cached ->
      check ("winning path of " ^ pipeline ^ " not in the tuned-plan cache") false;
      []

let compile_unit ~pipeline ~rows ~cols ~seed ~setup_only =
  Optimizer.Mode.set_default Optimizer.Mode.Auto;
  let opt = Optimizer.Mode.Auto in
  let frame = Video.Framegen.frame (format ~rows ~cols) (frame_no ~seed 0) in
  let src = Sac.Programs.downscaler ~generic:false ~rows ~cols in
  let model = Mde.Chain.downscaler_model ~rows ~cols in
  let before = snapshot () in
  let ready = now_us () in
  let fields =
    match pipeline with
    | _ when setup_only -> []
    | "sac" ->
        let plan = compile_sac ~opt src in
        let compile_us = now_us () -. ready in
        let d = deltas before in
        check "tuned SAC frame = Video.Downscaler" (check_sac ~liveness:true plan frame);
        let modelled = Sac_cuda.Autotune.modelled_us plan in
        let rules =
          let fd, _ = Sac.Pipeline.optimize_source src ~entry:"main" in
          let base =
            gates_off (fun () -> Sac_cuda.Compile.plan ~opt:Optimizer.Mode.Off fd)
          in
          cached_rules ~pipeline:"sac" ~rows ~cols
            ~device:Gpu.Device.gtx480.Gpu.Device.name
            ~digest:(Optimizer.Cache.canonical_digest (strip_labels base))
        in
        if !traced then time_static_costs (sac_kernels plan);
        let wlf, wl_after =
          match !sac_report with
          | Some r -> (r.Sac.Pipeline.wlf_rounds, r.Sac.Pipeline.withloops_after)
          | None -> (0, 0)
        in
        [
          ("compile_s", num (compile_us /. 1e6));
          ("deltas", obj_of_floats d);
          (* The tuner's objective is per plane; a frame is three. *)
          ("modelled_us", num (3. *. modelled));
          ("objective_us", num modelled);
          ("rules", Obs.Json.Arr (List.map str rules));
          ("kernels", num (float_of_int (Sac_cuda.Plan.kernel_count plan)));
          ("wlf_rounds", num (float_of_int wlf));
          ("withloops_after", num (float_of_int wl_after));
        ]
    | _ ->
        let gen = compile_gaspard ~opt model in
        let compile_us = now_us () -. ready in
        let d = deltas before in
        check "tuned Gaspard2 frame = Video.Downscaler"
          (check_gaspard ~liveness:true gen frame);
        let modelled = Mde.Autotune.modelled_us gen in
        let rules =
          match Mde.Chain.transform ~opt:Optimizer.Mode.Off model with
          | Ok (base, _) ->
              cached_rules ~pipeline:"mde" ~rows ~cols ~device:"default"
                ~digest:(gaspard_fingerprint base)
          | Error m -> failwith m
        in
        if !traced then time_static_costs (gaspard_kernels gen);
        [
          ("compile_s", num (compile_us /. 1e6));
          ("deltas", obj_of_floats d);
          ("modelled_us", num modelled);
          ("objective_us", num modelled);
          ("rules", Obs.Json.Arr (List.map str rules));
          ("kernels", num (float_of_int (List.length gen.Mde.Codegen.kernel_tasks)));
        ]
  in
  (ready, fields @ [ ("emit_bytes", num (float_of_int !emitted)) ])

(* ------------------------------------------------------------------ *)
(* tune, traced: the search re-driven through the public moves         *)
(* ------------------------------------------------------------------ *)

let timed_moves moves st =
  span "optimizer.moves" (fun () ->
      List.map
        (fun (c : _ Optimizer.Search.candidate) ->
          {
            c with
            Optimizer.Search.apply =
              (fun () -> span "optimizer.apply" c.Optimizer.Search.apply);
          })
        (moves st))

(* Replay the winning path as the tuners do, re-verifying each step. *)
let replay moves init path =
  List.fold_left
    (fun st rule ->
      match st with
      | None -> None
      | Some st -> (
          match
            List.find_opt
              (fun (c : _ Optimizer.Search.candidate) -> c.Optimizer.Search.rule = rule)
              (moves st)
          with
          | None -> None
          | Some c -> c.Optimizer.Search.apply ()))
    (Some init) path

let redrive_unit ~pipeline ~rows ~cols =
  Optimizer.Mode.set_default Optimizer.Mode.Auto;
  let outcome_fields (o : _ Optimizer.Search.outcome) =
    [
      ("rules", Obs.Json.Arr (List.map str o.Optimizer.Search.path));
      ("objective_us", num o.Optimizer.Search.best_cost);
      ("base_us", num o.Optimizer.Search.base_cost);
      ("explored", num (float_of_int o.Optimizer.Search.explored));
      ("rejected", num (float_of_int o.Optimizer.Search.rejected));
    ]
  in
  match pipeline with
  | "sac" ->
      let src = Sac.Programs.downscaler ~generic:false ~rows ~cols in
      let fd, _ = Sac.Pipeline.optimize_source src ~entry:"main" in
      let base =
        gates_off (fun () -> Sac_cuda.Compile.plan ~opt:Optimizer.Mode.Off fd)
      in
      let device = Gpu.Device.gtx480 in
      let init =
        { Sac_cuda.Autotune.plan = base; fstats = Gpu.Fuse.no_stats; undo = None }
      in
      let fingerprint (st : Sac_cuda.Autotune.state) =
        span "optimizer.fingerprint" (fun () ->
            Optimizer.Cache.canonical_digest (strip_labels st.Sac_cuda.Autotune.plan))
      in
      span "sac_cuda.tune" (fun () ->
          ignore (fingerprint init);
          let o =
            span "optimizer.search" (fun () ->
                Optimizer.Search.run
                  ~cost:(fun st ->
                    span "sac_cuda.cost" (fun () ->
                        Sac_cuda.Autotune.modelled_us ~device st.Sac_cuda.Autotune.plan))
                  ~fingerprint
                  ~moves:(timed_moves (Sac_cuda.Autotune.moves ~device))
                  init)
          in
          span "optimizer.replay" (fun () ->
              check "replay of the re-driven path"
                (replay (Sac_cuda.Autotune.moves ~device) init o.Optimizer.Search.path
                <> None));
          outcome_fields o)
  | _ ->
      let model = Mde.Chain.downscaler_model ~rows ~cols in
      let gen =
        match Mde.Chain.transform ~opt:Optimizer.Mode.Off model with
        | Ok (g, _) -> g
        | Error m -> failwith m
      in
      let init = { Mde.Autotune.gen; fstats = Gpu.Fuse.no_stats; undo = None } in
      let fingerprint (st : Mde.Autotune.state) =
        span "optimizer.fingerprint" (fun () ->
            gaspard_fingerprint st.Mde.Autotune.gen)
      in
      span "mde.tune" (fun () ->
          ignore (fingerprint init);
          let o =
            span "optimizer.search" (fun () ->
                Optimizer.Search.run
                  ~cost:(fun st ->
                    span "mde.cost" (fun () ->
                        Mde.Autotune.modelled_us st.Mde.Autotune.gen))
                  ~fingerprint ~moves:(timed_moves Mde.Autotune.moves) init)
          in
          span "optimizer.replay" (fun () ->
              match replay Mde.Autotune.moves init o.Optimizer.Search.path with
              | None -> check "replay of the re-driven path" false
              | Some st ->
                  if o.Optimizer.Search.path <> [] then
                    ignore (Mde.Codegen.render st.Mde.Autotune.gen));
          outcome_fields o)

(* ------------------------------------------------------------------ *)
(* paper: the evaluation at paper scale, --opt off                     *)
(* ------------------------------------------------------------------ *)

let paper_error_pct ~paper ~ours =
  let errs =
    List.map
      (fun (op, _, us, _) ->
        match
          List.find_opt (fun (r : Gpu.Profiler.row) -> r.Gpu.Profiler.operation = op) ours
        with
        | Some r -> Float.abs (r.Gpu.Profiler.gpu_time_us -. us) /. us *. 100.
        | None ->
            check ("paper row " ^ op ^ " simulated") false;
            100.)
      paper
  in
  List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs)

let paper_unit ~seed ~setup_only =
  Optimizer.Mode.set_default Optimizer.Mode.Off;
  let opt = Optimizer.Mode.Off in
  let scale = Study.Scale.paper in
  let rows = scale.Study.Scale.rows and cols = scale.Study.Scale.cols in
  let src = Sac.Programs.downscaler ~generic:false ~rows ~cols in
  let model = Mde.Chain.downscaler_model ~rows ~cols in
  let before = snapshot () in
  let ready = now_us () in
  if setup_only then (ready, []) else
  let t1 = span "study.table1" (fun () -> Study.Experiments.table1 ~scale ()) in
  let t2 = span "study.table2" (fun () -> Study.Experiments.table2 ~scale ()) in
  let f9 = span "study.fig9" (fun () -> Study.Experiments.fig9 ~scale ()) in
  let f12 = span "study.fig12" (fun () -> Study.Experiments.fig12 ~scale ()) in
  let claims = span "study.claims" (fun () -> Study.Experiments.claims ~scale ()) in
  let report =
    String.concat "\n"
      [
        Study.Report.table ~title:"Table I" t1;
        Study.Report.table ~title:"Table II" t2;
        Study.Report.fig9 f9;
        Study.Report.fig12 f12;
        Study.Report.claims claims;
      ]
  in
  let sac_plan = compile_sac ~opt src in
  ignore (compile_gaspard ~opt model);
  let repro_us = now_us () -. ready in
  let d = deltas before in
  let emit_bytes = !emitted and sac_report = !sac_report in
  (* Checks, outside the timed pass. *)
  let claims =
    if !fault = "claim" then { claims with Study.Experiments.within_85_pct = false }
    else claims
  in
  check "claim: within 85% of the best" claims.Study.Experiments.within_85_pct;
  check "claim: real-time playback" claims.Study.Experiments.realtime_ok;
  List.iter
    (fun (v : Study.Experiments.validation) ->
      check ("validate: " ^ v.Study.Experiments.name) v.Study.Experiments.ok)
    (Study.Experiments.validate ());
  let vs = Study.Scale.validation in
  let small_src =
    Sac.Programs.downscaler ~generic:false ~rows:vs.Study.Scale.rows
      ~cols:vs.Study.Scale.cols
  in
  let frame =
    Video.Framegen.frame
      (format ~rows:vs.Study.Scale.rows ~cols:vs.Study.Scale.cols)
      (frame_no ~seed 0)
  in
  let saved_traced = !traced in
  traced := false;
  check "off-plan SAC frame = Video.Downscaler"
    (check_sac ~liveness:false (compile_sac ~opt small_src) frame);
  check "off-plan Gaspard2 frame = Video.Downscaler"
    (check_gaspard ~liveness:false
       (compile_gaspard ~opt
          (Mde.Chain.downscaler_model ~rows:vs.Study.Scale.rows
             ~cols:vs.Study.Scale.cols))
       frame);
  traced := saved_traced;
  let error =
    (paper_error_pct ~paper:Study.Report.paper_table1_reference ~ours:t1
    +. paper_error_pct ~paper:Study.Report.paper_table2_reference ~ours:t2)
    /. 2.
  in
  let frames = float_of_int scale.Study.Scale.frames in
  let per_frame rows = Gpu.Profiler.total_us rows /. frames in
  (* Each workload-level figure is a geometric mean over programs. *)
  let modelled = sqrt (per_frame t1 *. per_frame t2) in
  ( ready,
    [
      ("repro_s", num (repro_us /. 1e6));
      ("deltas", obj_of_floats d);
      ("modelled_us", num modelled);
      ("paper_error_pct", num error);
      ("report_bytes", num (float_of_int (String.length report)));
      ("emit_bytes", num (float_of_int emit_bytes));
      ("kernels", num (float_of_int (Sac_cuda.Plan.kernel_count sac_plan)));
      ( "wlf_rounds",
        num
          (match sac_report with
          | Some r -> float_of_int r.Sac.Pipeline.wlf_rounds
          | None -> 0.) );
      ( "withloops_after",
        num
          (match sac_report with
          | Some r -> float_of_int r.Sac.Pipeline.withloops_after
          | None -> 0.) );
    ] )

(* ------------------------------------------------------------------ *)
(* serve: an open loop of CIF frames over four auto-tuned streams      *)
(* ------------------------------------------------------------------ *)

(* SAC and Gaspard2 streams alternate, so a slow SAC frame is followed
   by a short Gaspard2 one rather than by another SAC frame. *)
let streams = [ Serve.Session.Sac; Serve.Session.Mde; Serve.Session.Sac; Serve.Session.Mde ]

(* Distinct frames cycled per stream; their golden outputs are computed
   during set-up so checking a completion costs one comparison. *)
let pool_frames = 3

let serve_unit ~seed ~seconds ~rate ~setup_only =
  let domains = Gpu.Pool.default_domains () in
  Gpu.Context.set_default_mode
    (if domains <= 1 then Gpu.Context.Sequential else Gpu.Context.Parallel domains);
  let fmt = Video.Format.qcif in
  let before_setup = snapshot () in
  let sessions =
    Array.of_list
      (List.mapi
         (fun id pipeline ->
           Serve.Session.create ~opt:Optimizer.Mode.Auto ~id ~pipeline fmt)
         streams)
  in
  let inputs =
    Array.mapi
      (fun s _ ->
        Array.init pool_frames (fun k ->
            let frame = Video.Framegen.frame fmt (frame_no ~seed ((s * pool_frames) + k)) in
            (frame, Video.Downscaler.frame frame)))
      sessions
  in
  (* Set-up verification: one frame per pipeline, as served does. *)
  let modelled =
    List.map
      (fun s ->
        let frame, expected = inputs.(s).(0) in
        let out, events = Serve.Session.run_frame sessions.(s) frame in
        check "set-up frame = Video.Downscaler" (Video.Frame.equal out expected);
        List.fold_left (fun acc (e : Gpu.Timeline.event) -> acc +. e.Gpu.Timeline.us) 0. events)
      [ 0; 1 ]
  in
  let setup_deltas = deltas before_setup in
  let ready = now_us () in
  let common =
    [
      ("modelled_us", num (sqrt (List.fold_left ( *. ) 1. modelled)));
      ("setup_deltas", obj_of_floats setup_deltas);
    ]
  in
  if setup_only then (ready, common)
  else begin
    (* Traced only: unloaded per-frame execution through each pipeline. *)
    if !traced then
      for k = 0 to 4 do
        List.iter
          (fun (s, layer) ->
            let frame, _ = inputs.(s).(k mod pool_frames) in
            ignore (span layer (fun () -> Serve.Session.run_frame sessions.(s) frame)))
          [ (0, "sac_cuda.exec"); (1, "mde.run") ]
      done;
    let engine =
      Serve.Engine.create
        {
          Serve.Engine.workers = 1;
          queue_capacity = 64;
          policy = Serve.Queue.Reject;
          batch = Serve.Batcher.default;
        }
    in
    let n = max 1 (int_of_float (Float.round (seconds *. rate))) in
    let period_us = 1e6 /. rate in
    let before = snapshot () in
    let start = now_us () +. 1000. in
    (* Single-thread open loop: request i is due at start + i * period
       whatever happened to earlier requests; its latency counts from
       the due time, so a stalled generator shows up as latency. *)
    let sent =
      Array.init n (fun i ->
          let due = start +. (float_of_int i *. period_us) in
          let wait = due -. now_us () in
          if wait > 0. then Unix.sleepf (wait /. 1e6);
          let s = i mod Array.length sessions in
          let frame, expected = inputs.(s).(i / Array.length sessions mod pool_frames) in
          let submitted = now_us () in
          let ticket = Serve.Engine.submit engine sessions.(s) ~frame_no:i frame in
          (due, submitted, ticket, expected))
    in
    let outcomes =
      Array.map
        (fun (due, submitted, ticket, expected) ->
          match Serve.Engine.await ticket with
          | Serve.Engine.Done { frame; latency_us } ->
              let ok =
                Video.Frame.equal
                  (Video.Frame.map_planes (fun _ p -> maybe_flip p) frame)
                  expected
              in
              (ok, (submitted -. due +. latency_us) /. 1e3, (submitted -. due) /. 1e3)
          | Serve.Engine.Rejected | Serve.Engine.Dropped | Serve.Engine.Timed_out
          | Serve.Engine.Failed _ ->
              (false, nan, (submitted -. due) /. 1e3))
        sent
    in
    Serve.Engine.shutdown engine;
    let d = deltas before in
    let failed = Array.fold_left (fun acc (ok, _, _) -> if ok then acc else acc + 1) 0 outcomes in
    if failed > 0 then check (Printf.sprintf "%d of %d requests failed" failed n) false;
    let floats f = Obs.Json.Arr (Array.to_list (Array.map (fun o -> num (f o)) outcomes)) in
    ( ready,
      common
      @ [
          ("requests", num (float_of_int n));
          ("failed_requests", num (float_of_int failed));
          ("latency_ms", floats (fun (_, l, _) -> l));
          ("late_ms", floats (fun (_, _, l) -> l));
          ("deltas", obj_of_floats d);
          ( "queue_high_water",
            num
              (float_of_int
                 (Option.value ~default:0 (Obs.Metrics.find "serve.queue_high_water"))) );
        ] )
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage =
  "worker (compile|redrive) --pipeline sac|gaspard --rows R --cols C [--seed N]\n\
  \       worker compile ... --setup-only\n\
  \       worker paper [--seed N] [--setup-only]\n\
  \       worker serve [--seed N] [--seconds S] [--rate HZ] [--setup-only]\n\
   common: [--traced TRACE.json] [--fault pixel|claim]"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let cmd, opts = match args with c :: rest -> (c, rest) | [] -> ("", []) in
  let rec parse acc = function
    | "--setup-only" :: rest -> parse (("setup-only", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | bad :: _ ->
        prerr_endline ("worker: unexpected argument " ^ bad);
        prerr_endline usage;
        exit 2
  in
  let opts = parse [] opts in
  let get k default = Option.value ~default (List.assoc_opt k opts) in
  let int k default =
    match int_of_string_opt (get k (string_of_int default)) with
    | Some n -> n
    | None ->
        prerr_endline ("worker: --" ^ k ^ " expects an integer");
        exit 2
  in
  let float k default =
    match float_of_string_opt (get k (string_of_float default)) with
    | Some x -> x
    | None ->
        prerr_endline ("worker: --" ^ k ^ " expects a number");
        exit 2
  in
  let trace = List.assoc_opt "traced" opts in
  if trace <> None then begin
    traced := true;
    Obs.Tracer.set_enabled true
  end;
  fault := get "fault" "";
  let seed = int "seed" 1 in
  let pipeline = get "pipeline" "sac" in
  let rows = int "rows" 72 and cols = int "cols" 64 in
  let setup_only = List.mem_assoc "setup-only" opts in
  let finish (ready, fields) =
    print_result ?trace (("ready_unix_us", num ready) :: fields)
  in
  match cmd with
  | "compile" -> finish (compile_unit ~pipeline ~rows ~cols ~seed ~setup_only)
  | "redrive" ->
      let ready = now_us () in
      finish (ready, redrive_unit ~pipeline ~rows ~cols)
  | "paper" -> finish (paper_unit ~seed ~setup_only)
  | "serve" ->
      finish
        (serve_unit ~seed ~seconds:(float "seconds" 10.) ~rate:(float "rate" 3.)
           ~setup_only)
  | _ ->
      prerr_endline usage;
      exit 2
