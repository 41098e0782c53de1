(* lint_all -- run the static analyzers over every kernel the repo's
   example programs produce: the six built-in SAC programs (both
   output-tiler variants of each filter and of the full downscaler)
   through the SAC->CUDA compiler, and the Gaspard2 downscaler model
   through the MDE chain — each swept both without and with the
   --opt fuse plan optimizer, so fused dispatch kernels stay verified.
   Every swept kernel also prints through the CUDA, OpenCL and Metal
   emitters.

   Exits non-zero on any error finding, so the `lint` alias (attached
   to runtest) fails when either code generator regresses. *)

let rows = 72

let cols = 64

let failed = ref false

let report name kernels findings =
  if findings = [] then
    Printf.printf "%-32s %2d kernel(s)  ok\n" name kernels
  else begin
    Printf.printf "%-32s %2d kernel(s)  %d finding(s)\n" name kernels
      (List.length findings);
    List.iter
      (fun f -> Format.printf "  %a@." Analysis.Finding.pp_long f)
      findings;
    if Analysis.Finding.errors findings > 0 then failed := true
  end

let check_source name what src =
  if String.length src = 0 then begin
    Printf.printf "%-32s %s emitter produced no source\n" name what;
    failed := true
  end

(* Every linted plan must also print through all three source
   emitters: a plan the analyzers accept but a backend cannot render
   is still a code-generator regression. *)
let emitters_render name plan =
  check_source name "cuda" (Sac_cuda.Emit_cu.source ~name:"lint_sweep" plan);
  let ocl = Sac_opencl.Backend.sources ~name:"lint_sweep" plan in
  check_source name "opencl" ocl.Sac_opencl.Backend.cl;
  let mtl = Sac_metal.Backend.sources ~name:"lint_sweep" plan in
  check_source name "metal" mtl.Sac_metal.Backend.metal;
  check_source name "metal host" mtl.Sac_metal.Backend.host

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* The Gaspard2 chain's tiler gather/scatter kernels print through the
   same shared kernel printer, so each must render under every
   dialect, with its own name in the signature. *)
let kernels_render name kernels =
  List.iter
    (fun (what, print) ->
      List.iter
        (fun ((k : Gpu.Kir.t), grid) ->
          let kname = k.Gpu.Kir.kname in
          match print ~grid k with
          | src ->
              if not (contains src (kname ^ "(")) then begin
                Printf.printf "%-32s %s printer lost kernel %s\n" name what
                  kname;
                failed := true
              end
          | exception Invalid_argument m ->
              Printf.printf "%-32s %s printer failed on %s: %s\n" name what
                kname m;
              failed := true)
        kernels)
    [
      ("cuda", Cuda.Emit.kernel);
      ("opencl", Opencl.Emit.kernel);
      ("metal", Metal.Emit.kernel);
    ]

let sac_program opt name source =
  match Sac_cuda.Compile.plan_of_source ~opt source ~entry:"main" with
  | plan, _ ->
      report name
        (Sac_cuda.Plan.kernel_count plan)
        (Sac_cuda.Verify.check plan);
      emitters_render name plan
  | exception Sac_cuda.Compile.Compile_error m ->
      Printf.printf "%-32s failed to compile: %s\n" name m;
      failed := true

let sweep opt suffix =
  List.iter
    (fun (name, src) -> sac_program opt (name ^ suffix) (src ~rows ~cols))
    [
      ("sac/horizontal", Sac.Programs.horizontal ~generic:false);
      ("sac/horizontal-generic", Sac.Programs.horizontal ~generic:true);
      ("sac/vertical", Sac.Programs.vertical ~generic:false);
      ("sac/vertical-generic", Sac.Programs.vertical ~generic:true);
      ("sac/downscaler", Sac.Programs.downscaler ~generic:false);
      ("sac/downscaler-generic", Sac.Programs.downscaler ~generic:true);
    ];
  match Mde.Chain.transform ~opt (Mde.Chain.downscaler_model ~rows ~cols) with
  | Ok (gen, _) ->
      let name = "mde/downscaler-chain" ^ suffix in
      let tasks = gen.Mde.Codegen.kernel_tasks in
      report name (List.length tasks) (Mde.Verify.check tasks);
      kernels_render name
        (List.map
           (fun kt -> (kt.Mde.Codegen.kernel, kt.Mde.Codegen.grid))
           tasks)
  | Error m ->
      Printf.printf "%-32s chain failed: %s\n" ("mde/downscaler-chain" ^ suffix)
        m;
      failed := true

let () =
  (* The analyzers run once, explicitly, below. *)
  Analysis.Config.set_mode Analysis.Config.Off;
  sweep Optimizer.Mode.Off "";
  sweep Optimizer.Mode.Fuse " (fused)";
  if !failed then exit 1
