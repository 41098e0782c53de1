(* Rewrite-rule autotuning over generated ArrayOL kernel programs.

   The cost runner below replays exactly the dataflow Chain.run
   executes — boundary uploads, kernel launches in schedule order with
   per-port buffers, boundary read-backs — against a timing-only
   context, so the search objective is the same modelled time the
   reproduction reports.  (It is deliberately independent of Chain so
   Chain.transform can invoke the tuner without a dependency cycle.) *)

open Ndarray

type state = { gen : Codegen.generated; fstats : Gpu.Fuse.stats; undo : state option }

(* Sources are regenerated from the kernel tasks at render time, so the
   fingerprint covers only the structure the rewrites touch — otherwise
   a rendered and an unrendered copy of the same program would count as
   two distinct states. *)
let fingerprint st =
  Optimizer.Cache.digest
    ( st.gen.Codegen.kernel_tasks,
      st.gen.Codegen.levels,
      st.gen.Codegen.connections )

(* ------------------------------------------------------------------ *)
(* Cost: schedule replay in a timing-only context                      *)
(* ------------------------------------------------------------------ *)

(* Shared synthetic upload payloads, one per size: the search scores
   hundreds of candidates per tune and timing-only writes never read
   the data back mutated. *)
let input_lock = Mutex.create ()

let input_pool : (int, int array) Hashtbl.t = Hashtbl.create 8

let synthetic_input n =
  Mutex.lock input_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock input_lock)
    (fun () ->
      match Hashtbl.find_opt input_pool n with
      | Some a -> a
      | None ->
          let a = Array.init n (fun i -> i mod 251) in
          Hashtbl.replace input_pool n a;
          a)

let modelled_us ?device (gen : Codegen.generated) =
  let ctx =
    Opencl.Runtime.create_context ~mode:Gpu.Context.Timing_only ?device ()
  in
  let queue = Opencl.Runtime.create_command_queue ctx in
  let program =
    Opencl.Runtime.create_program_with_source ctx ~name:gen.Codegen.model_name
      (List.map (fun kt -> kt.Codegen.kernel) gen.Codegen.kernel_tasks)
  in
  (match Opencl.Runtime.build_program program with
  | Ok () -> ()
  | Error m -> invalid_arg ("Mde.Autotune: " ^ m));
  let buffers : (Arrayol.Model.endpoint, Opencl.Runtime.mem) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (p : Arrayol.Model.port) ->
      let n = Shape.size p.Arrayol.Model.pshape in
      let mem =
        Opencl.Runtime.create_buffer ctx ~name:p.Arrayol.Model.pname n
      in
      Opencl.Runtime.enqueue_write_buffer queue mem (synthetic_input n);
      Hashtbl.replace buffers (Arrayol.Model.Boundary p.Arrayol.Model.pname) mem)
    gen.Codegen.boundary_inputs;
  let source_of target =
    match
      List.find_opt
        (fun (c : Arrayol.Model.connection) -> c.Arrayol.Model.cto = target)
        gen.Codegen.connections
    with
    | Some c -> c.Arrayol.Model.cfrom
    | None -> invalid_arg "Mde.Autotune: unconnected port"
  in
  List.iter
    (fun level ->
      List.iter
        (fun inst ->
          match
            List.find_opt
              (fun kt -> kt.Codegen.instance = inst)
              gen.Codegen.kernel_tasks
          with
          | None -> ()
          | Some kt ->
              let in_args =
                List.map
                  (fun (port, _) ->
                    let src = source_of (Arrayol.Model.Part (inst, port)) in
                    match Hashtbl.find_opt buffers src with
                    | Some mem -> (Codegen.sanitize port, Gpu.Kir.Buffer_arg mem)
                    | None -> invalid_arg "Mde.Autotune: value not ready")
                  kt.Codegen.input_ports
              in
              let out_args =
                List.map
                  (fun (port, shape) ->
                    let mem =
                      Opencl.Runtime.create_buffer ctx ~name:(inst ^ "." ^ port)
                        (Shape.size shape)
                    in
                    Hashtbl.replace buffers (Arrayol.Model.Part (inst, port)) mem;
                    (Codegen.sanitize port, Gpu.Kir.Buffer_arg mem))
                  kt.Codegen.output_ports
              in
              let kernel =
                Opencl.Runtime.create_kernel program
                  kt.Codegen.kernel.Gpu.Kir.kname
              in
              Opencl.Runtime.set_args kernel (in_args @ out_args);
              Opencl.Runtime.enqueue_nd_range_kernel queue kernel
                ~label:kt.Codegen.task_name ~global_work_size:kt.Codegen.grid)
        level)
    gen.Codegen.levels;
  Opencl.Runtime.finish queue;
  List.iter
    (fun (p : Arrayol.Model.port) ->
      let src = source_of (Arrayol.Model.Boundary p.Arrayol.Model.pname) in
      match Hashtbl.find_opt buffers src with
      | Some mem ->
          Opencl.Runtime.enqueue_read_buffer queue mem
            (Array.make (Shape.size p.Arrayol.Model.pshape) 0)
      | None -> invalid_arg "Mde.Autotune: output never produced")
    gen.Codegen.boundary_outputs;
  Opencl.Runtime.elapsed_us ctx

(* ------------------------------------------------------------------ *)
(* Moves                                                               *)
(* ------------------------------------------------------------------ *)

(* Rewrite one kernel task through a grid-level rule; [None] when the
   rule does not apply or the rewritten task fails the verifier. *)
let rewrite_task st instance f =
  let changed = ref false in
  let kernel_tasks =
    List.map
      (fun kt ->
        if kt.Codegen.instance <> instance then kt
        else
          match f (kt.Codegen.kernel, kt.Codegen.grid) with
          | Some (kernel, grid)
            when Verify.check
                   [ { kt with Codegen.kernel; grid } ]
                 = [] ->
              changed := true;
              { kt with Codegen.kernel; grid }
          | _ -> kt)
      st.gen.Codegen.kernel_tasks
  in
  if !changed then
    Some
      {
        gen = { st.gen with Codegen.kernel_tasks };
        fstats = st.fstats;
        undo = Some st;
      }
  else None

let tile_factors = [ 2; 4 ]

let moves st =
  let g = st.gen in
  let fuse_moves =
    List.map
      (fun (rule, apply) ->
        {
          Optimizer.Search.rule;
          apply =
            (fun () ->
              Option.map
                (fun (g', s) ->
                  {
                    gen = g';
                    fstats = Gpu.Fuse.add_stats st.fstats s;
                    undo = Some st;
                  })
                (apply ()));
        })
      (Fuse_chain.candidates g)
  in
  let fuse_all =
    {
      Optimizer.Search.rule = "fuse!";
      apply =
        (fun () ->
          let g', s = Fuse_chain.optimize g in
          if s.Gpu.Fuse.kernels_eliminated = 0 then None
          else
            Some
              {
                gen = g';
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
  let per_task =
    List.concat_map
      (fun kt ->
        let inst = kt.Codegen.instance in
        let ic =
          {
            Optimizer.Search.rule = "interchange:" ^ inst;
            apply = (fun () -> rewrite_task st inst Optimizer.Rules.interchange);
          }
        in
        let tiles =
          List.map
            (fun factor ->
              {
                Optimizer.Search.rule = Printf.sprintf "tile:%s:x%d" inst factor;
                apply =
                  (fun () -> rewrite_task st inst (Optimizer.Rules.tile ~factor));
              })
            tile_factors
        in
        ic :: tiles)
      g.Codegen.kernel_tasks
  in
  (fuse_all :: fuse_moves) @ fission @ per_task

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let tune ?device (gen : Codegen.generated) =
  Obs.Tracer.with_span ~cat:"mde" "mde.autotune" @@ fun () ->
  let rows, cols =
    match gen.Codegen.boundary_inputs with
    | p :: _ when Array.length p.Arrayol.Model.pshape >= 2 ->
        (p.Arrayol.Model.pshape.(0), p.Arrayol.Model.pshape.(1))
    | _ -> (1, 1)
  in
  let device_name =
    match device with
    | Some (d : Gpu.Device.t) -> d.Gpu.Device.name
    | None -> "default"
  in
  let init = { gen; fstats = Gpu.Fuse.no_stats; undo = None } in
  let key =
    Optimizer.Cache.key ~pipeline:"mde" ~rows ~cols ~device:device_name
      ~digest:(fingerprint init)
  in
  let tuned =
    Optimizer.Cache.find_or_tune ~key (fun () ->
        let o =
          Optimizer.Search.run
            ~cost:(fun st -> modelled_us ?device st.gen)
            ~fingerprint ~moves init
        in
        {
          Optimizer.Cache.rules = o.Optimizer.Search.path;
          tuned_us = o.Optimizer.Search.best_cost;
          base_us = o.Optimizer.Search.base_cost;
        })
  in
  match Optimizer.Search.replay ~moves init tuned.Optimizer.Cache.rules with
  | Some st ->
      let g =
        if tuned.Optimizer.Cache.rules = [] then st.gen
        else Codegen.render st.gen
      in
      (g, st.fstats, tuned.Optimizer.Cache.rules)
  | None -> (gen, Gpu.Fuse.no_stats, [])
