(* Rewrite-rule autotuning over compiled SAC plans: the SAC route of
   Optimizer.Tuner.

   The search state carries the plan, the fusion savings accumulated so
   far (so the winner reports honest fusion stats) and the previous
   state (so a fission move can undo a harmful fusion).  Every rewritten
   item re-verifies through the same analysis gates as the
   compile-time plan gate; a candidate with findings is rejected and
   counted. *)

open Ndarray

type state = { plan : Plan.t; fstats : Gpu.Fuse.stats; undo : state option }

(* Profiling labels are caller-specific (Serve names plan items after
   its filters); strip them before hashing so equal programs share one
   cache entry and one search fingerprint. *)
let strip_labels (p : Plan.t) =
  {
    p with
    Plan.items =
      List.map
        (function
          | Plan.Device_withloop d -> Plan.Device_withloop { d with label = "" }
          | it -> it)
        p.Plan.items;
  }

let modelled_us ?device (p : Plan.t) =
  let rt = Cuda.Runtime.init ~mode:Gpu.Context.Timing_only ?device () in
  let args =
    List.map
      (fun (n, shape) -> (n, Optimizer.Tuner.synthetic shape))
      p.Plan.params
  in
  let outcome = Exec.run ~host_mode:`Estimate rt p ~args in
  Cuda.Runtime.elapsed_us rt +. outcome.Exec.host_us

let item_threads kernels =
  List.fold_left
    (fun acc (_, grid) -> max acc (Array.fold_left ( * ) 1 grid))
    0 kernels

(* Rewrite the kernels of one Device_withloop item through [f] (a
   grid-level rule); [None] when the rule changed nothing or the
   rewritten item fails the analysis gates. *)
let rewrite_item (p : Plan.t) target f =
  let changed = ref false in
  let rewrite = function
    | Plan.Device_withloop d when d.target = target ->
        let kernels =
          List.map
            (fun kg ->
              match f kg with
              | Some kg' ->
                  changed := true;
                  kg'
              | None -> kg)
            d.kernels
        in
        if
          !changed
          && Fuse_plan.item_findings ~swith:d.swith ~kernels
               ~full_cover:d.full_cover
             = []
        then Some (Plan.Device_withloop { d with kernels })
        else None
    | _ -> None
  in
  let items =
    List.map
      (fun it -> match rewrite it with Some it' -> it' | None -> it)
      p.Plan.items
  in
  if !changed && List.exists2 (fun a b -> not (a == b)) p.Plan.items items
  then Some { p with Plan.items }
  else None

let route ~device =
  {
    Optimizer.Tuner.pipeline = "sac";
    state = (fun plan fstats undo -> { plan; fstats; undo });
    view = (fun st -> (st.plan, st.fstats, st.undo));
    fingerprint = (fun p -> Optimizer.Cache.canonical_digest (strip_labels p));
    cost = modelled_us ~device;
    fusions = Fuse_plan.candidates;
    sites =
      (fun p ->
        List.filter_map
          (function
            | Plan.Device_withloop { target; kernels; _ } ->
                Some
                  {
                    Optimizer.Tuner.name = target;
                    (* Coarsening trades parallelism for per-thread
                       work; it can only pay while the grid
                       undersaturates the device, so it is not even
                       offered on big grids. *)
                    tiles =
                      item_threads kernels
                      < 4 * Gpu.Device.saturation_threads device;
                    rewrite = rewrite_item p target;
                  }
            | _ -> None)
          p.Plan.items);
    shape =
      (fun p ->
        match p.Plan.params with
        | (_, shape) :: _ when Array.length shape >= 2 -> (shape.(0), shape.(1))
        | _ -> (1, Shape.size p.Plan.result_shape));
  }

let moves ~device = Optimizer.Tuner.moves (route ~device)

let tune ?(device = Gpu.Device.gtx480) (p : Plan.t) =
  Obs.Tracer.with_span ~cat:"sac" "sac.autotune" @@ fun () ->
  let st, rules =
    Optimizer.Tuner.tune (route ~device) ~device:device.Gpu.Device.name p
  in
  (st.plan, st.fstats, rules)
