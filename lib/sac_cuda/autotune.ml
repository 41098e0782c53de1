(* Rewrite-rule autotuning over compiled SAC plans.

   The search state carries the plan, the fusion savings accumulated so
   far (so the winner reports honest fusion stats) and the previous
   state (so "fission" can undo a harmful fusion — the inverse rewrite
   the beam needs to back out of a dead end).  All structural rewrites
   re-verify through the same analysis gates as the compile-time plan
   gate; a candidate with findings is rejected and counted. *)

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

let fingerprint st = Optimizer.Cache.canonical_digest (strip_labels st.plan)

(* The search scores hundreds of candidates per tune; materialising a
   fresh multi-megabyte argument tensor for each would dwarf the cost
   profiling itself.  Timing-only runs never mutate their arguments,
   so one synthetic tensor per shape is shared across evaluations. *)
let arg_lock = Mutex.create ()

let arg_pool : (int array, int Tensor.t) Hashtbl.t = Hashtbl.create 8

let synthetic_arg shape =
  Mutex.lock arg_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock arg_lock)
    (fun () ->
      match Hashtbl.find_opt arg_pool shape with
      | Some t -> t
      | None ->
          let t = Tensor.init_lin shape (fun i -> i mod 251) in
          Hashtbl.replace arg_pool shape t;
          t)

let modelled_us ?device (p : Plan.t) =
  let rt = Cuda.Runtime.init ~mode:Gpu.Context.Timing_only ?device () in
  let args =
    List.map (fun (n, shape) -> (n, synthetic_arg shape)) p.Plan.params
  in
  let outcome = Exec.run ~host_mode:`Estimate rt p ~args in
  Cuda.Runtime.elapsed_us rt +. outcome.Exec.host_us

(* ------------------------------------------------------------------ *)
(* Moves                                                               *)
(* ------------------------------------------------------------------ *)

let item_threads kernels =
  List.fold_left
    (fun acc (_, grid) -> max acc (Array.fold_left ( * ) 1 grid))
    0 kernels

(* Rewrite the kernels of one Device_withloop item through [f] (a
   grid-level rule); [None] when the rule changed nothing or the
   rewritten item fails the analysis gates. *)
let rewrite_item st target f =
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
      st.plan.Plan.items
  in
  if
    !changed
    && List.exists2 (fun a b -> not (a == b)) st.plan.Plan.items items
  then
    Some
      { plan = { st.plan with Plan.items }; fstats = st.fstats; undo = Some st }
  else None

let tile_factors = [ 2; 4 ]

let moves ~device st =
  let p = st.plan in
  let fuse_moves =
    List.map
      (fun (rule, apply) ->
        {
          Optimizer.Search.rule;
          apply =
            (fun () ->
              Option.map
                (fun (p', s) ->
                  {
                    plan = p';
                    fstats = Gpu.Fuse.add_stats st.fstats s;
                    undo = Some st;
                  })
                (apply ()));
        })
      (Fuse_plan.candidates p)
  in
  let fuse_all =
    (* Fusion to fixpoint in one move: makes the fixed --fuse plan a
       depth-1 candidate, so the tuned plan is never modelled slower
       than either fixed mode. *)
    {
      Optimizer.Search.rule = "fuse!";
      apply =
        (fun () ->
          let p', s = Fuse_plan.optimize p in
          if s.Gpu.Fuse.kernels_eliminated = 0 then None
          else
            Some
              {
                plan = p';
                fstats = Gpu.Fuse.add_stats st.fstats s;
                undo = Some st;
              });
    }
  in
  let fission =
    match st.undo with
    | None -> []
    | Some prev ->
        [ { Optimizer.Search.rule = "fission"; apply = (fun () -> Some prev) } ]
  in
  let per_item =
    List.concat_map
      (function
        | Plan.Device_withloop { target; kernels; _ } ->
            let ic =
              {
                Optimizer.Search.rule = "interchange:" ^ target;
                apply =
                  (fun () -> rewrite_item st target Optimizer.Rules.interchange);
              }
            in
            let tiles =
              (* Coarsening trades parallelism for per-thread work; it
                 can only pay while the grid undersaturates the device,
                 so don't even offer it on big grids. *)
              if item_threads kernels >= 4 * Gpu.Device.saturation_threads device
              then []
              else
                List.map
                  (fun factor ->
                    {
                      Optimizer.Search.rule =
                        Printf.sprintf "tile:%s:x%d" target factor;
                      apply =
                        (fun () ->
                          rewrite_item st target
                            (Optimizer.Rules.tile ~factor));
                    })
                  tile_factors
            in
            ic :: tiles
        | _ -> [])
      p.Plan.items
  in
  (fuse_all :: fuse_moves) @ fission @ per_item

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let tune ?(device = Gpu.Device.gtx480) (p : Plan.t) =
  Obs.Tracer.with_span ~cat:"sac" "sac.autotune" @@ fun () ->
  let rows, cols =
    match p.Plan.params with
    | (_, shape) :: _ when Array.length shape >= 2 -> (shape.(0), shape.(1))
    | _ -> (1, Shape.size p.Plan.result_shape)
  in
  let key =
    Optimizer.Cache.key ~pipeline:"sac" ~rows ~cols
      ~device:device.Gpu.Device.name
      ~digest:(Optimizer.Cache.canonical_digest (strip_labels p))
  in
  let init = { plan = p; fstats = Gpu.Fuse.no_stats; undo = None } in
  let tuned =
    Optimizer.Cache.find_or_tune ~key (fun () ->
        let o =
          Optimizer.Search.run
            ~cost:(fun st -> modelled_us ~device st.plan)
            ~fingerprint ~moves:(moves ~device) init
        in
        {
          Optimizer.Cache.rules = o.Optimizer.Search.path;
          tuned_us = o.Optimizer.Search.best_cost;
          base_us = o.Optimizer.Search.base_cost;
        })
  in
  (* Replay the memoised path on this caller's own plan (which may
     carry different labels); each step re-verifies.  A diverging
     replay falls back to the unoptimised plan. *)
  match
    Optimizer.Search.replay ~moves:(moves ~device) init
      tuned.Optimizer.Cache.rules
  with
  | Some st -> (st.plan, st.fstats, tuned.Optimizer.Cache.rules)
  | None -> (p, Gpu.Fuse.no_stats, [])
