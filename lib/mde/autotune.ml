(* Rewrite-rule autotuning over generated ArrayOL kernel programs: the
   Gaspard2 route of Optimizer.Tuner.  The cost is Exec.run, the walk
   Chain.run executes, in a timing-only context, so the search
   objective is the modelled time the reproduction reports. *)

type state = { gen : Codegen.generated; fstats : Gpu.Fuse.stats; undo : state option }

(* Sources are regenerated from the kernel tasks at render time, so the
   fingerprint covers only the structure the rewrites touch — otherwise
   a rendered and an unrendered copy of the same program would count as
   two distinct states. *)
let fingerprint (g : Codegen.generated) =
  Optimizer.Cache.digest
    (g.Codegen.kernel_tasks, g.Codegen.levels, g.Codegen.connections)

let modelled_us ?device (gen : Codegen.generated) =
  let ctx =
    Opencl.Runtime.create_context ~mode:Gpu.Context.Timing_only ?device ()
  in
  let inputs =
    List.map
      (fun (p : Arrayol.Model.port) ->
        ( p.Arrayol.Model.pname,
          Optimizer.Tuner.synthetic p.Arrayol.Model.pshape ))
      gen.Codegen.boundary_inputs
  in
  ignore (Exec.run ~label_of:Fun.id ~liveness:false ctx gen ~inputs);
  Opencl.Runtime.elapsed_us ctx

(* Rewrite one kernel task through a grid-level rule; [None] when the
   rule does not apply or the rewritten task fails the verifier. *)
let rewrite_task (g : Codegen.generated) instance f =
  let changed = ref false in
  let kernel_tasks =
    List.map
      (fun kt ->
        if kt.Codegen.instance <> instance then kt
        else
          match f (kt.Codegen.kernel, kt.Codegen.grid) with
          | Some (kernel, grid)
            when Verify.check [ { kt with Codegen.kernel; grid } ] = [] ->
              changed := true;
              { kt with Codegen.kernel; grid }
          | _ -> kt)
      g.Codegen.kernel_tasks
  in
  if !changed then Some { g with Codegen.kernel_tasks } else None

let route ~device =
  {
    Optimizer.Tuner.pipeline = "mde";
    state = (fun gen fstats undo -> { gen; fstats; undo });
    view = (fun st -> (st.gen, st.fstats, st.undo));
    fingerprint;
    cost = modelled_us ~device;
    (* Candidates leave the sources stale; [tune] renders the winner. *)
    fusions = Fuse_chain.candidates;
    sites =
      (fun g ->
        List.map
          (fun kt ->
            let inst = kt.Codegen.instance in
            {
              Optimizer.Tuner.name = inst;
              tiles = true;
              rewrite = rewrite_task g inst;
            })
          g.Codegen.kernel_tasks);
    shape =
      (fun g ->
        match g.Codegen.boundary_inputs with
        | p :: _ when Array.length p.Arrayol.Model.pshape >= 2 ->
            (p.Arrayol.Model.pshape.(0), p.Arrayol.Model.pshape.(1))
        | _ -> (1, 1));
  }

let moves = Optimizer.Tuner.moves (route ~device:Gpu.Device.gtx480)

let tune ?device (gen : Codegen.generated) =
  Obs.Tracer.with_span ~cat:"mde" "mde.autotune" @@ fun () ->
  (* A tune without [device] is cached under the device name "default":
     perfbench/worker.ml looks the tuned path up under that key. *)
  let device_key =
    match device with
    | Some (d : Gpu.Device.t) -> d.Gpu.Device.name
    | None -> "default"
  in
  let device = Option.value device ~default:Gpu.Device.gtx480 in
  let st, rules = Optimizer.Tuner.tune (route ~device) ~device:device_key gen in
  ((if rules = [] then st.gen else Codegen.render st.gen), st.fstats, rules)
