(* Producer/consumer kernel fusion over generated kernel tasks.

   A connection [Part (pi, pout) -> Part (ci, cin)] is a fusion
   candidate when the producer task has that single output port and no
   other consumer reads it: the ArrayOL intermediate array then exists
   only to carry values between two GPU kernels, and inlining the
   producer's store expression into the consumer's reads (Gpu.Fuse)
   removes the buffer, its store/reload traffic and the producer
   launch.  Producer input ports are renamed [pi ^ "_" ^ ip] first so
   parameter names stay unique inside the fused kernel, and the
   rewritten task set is re-gated by the same checks Chain.transform
   applies to every generated kernel — any finding vetoes the
   rewrite. *)

open Ndarray

(* Rename the producer's input buffers (params and reads) so they
   cannot collide with the consumer's parameters after inlining. *)
let rename_inputs renames (k : Gpu.Kir.t) =
  let rec rename = function
    | Gpu.Kir.Read (b, a) ->
        Option.map
          (fun b' -> Gpu.Kir.Read (b', Gpu.Kir.map_expr rename a))
          (List.assoc_opt b renames)
    | _ -> None
  in
  {
    k with
    Gpu.Kir.params =
      List.map
        (fun (p : Gpu.Kir.param) ->
          match (p.Gpu.Kir.kind, List.assoc_opt p.Gpu.Kir.pname renames) with
          | Gpu.Kir.In_buffer, Some pname' -> { p with Gpu.Kir.pname = pname' }
          | _ -> p)
        k.Gpu.Kir.params;
    body = Gpu.Kir.map_stmts ~bind:Fun.id rename k.Gpu.Kir.body;
  }

let port_rename pi ip = pi ^ "_" ^ ip

let try_fuse (g : Codegen.generated) (c : Arrayol.Model.connection) =
  match (c.Arrayol.Model.cfrom, c.Arrayol.Model.cto) with
  | Arrayol.Model.Part (pi, pout), Arrayol.Model.Part (ci, cin) when pi <> ci
    -> (
      let task inst =
        List.find_opt (fun kt -> kt.Codegen.instance = inst) g.Codegen.kernel_tasks
      in
      match (task pi, task ci) with
      | Some p, Some consumer -> (
          match p.Codegen.output_ports with
          | [ (pout', pshape) ]
            when pout' = pout
                 && List.for_all
                      (fun (c' : Arrayol.Model.connection) ->
                        c' == c
                        || c'.Arrayol.Model.cfrom
                           <> Arrayol.Model.Part (pi, pout))
                      g.Codegen.connections -> (
              let renames =
                List.map
                  (fun (ip, _) ->
                    ( Codegen.sanitize ip,
                      Codegen.sanitize (port_rename pi ip) ))
                  p.Codegen.input_ports
              in
              match
                Gpu.Fuse.fuse_kernel
                  ~stores_to:(Codegen.sanitize pout)
                  ~len:(Shape.size pshape)
                  ~producers:[ (rename_inputs renames p.Codegen.kernel, p.Codegen.grid) ]
                  ~reads_from:(Codegen.sanitize cin)
                  ~consumer:consumer.Codegen.kernel ~grid:consumer.Codegen.grid
              with
              | Error reason ->
                  Logs.debug (fun k ->
                      k "mde fuse: %s.%s -> %s.%s not fused: %s" pi pout ci
                        cin reason);
                  None
              | Ok { Gpu.Fuse.fused; saved_launches } ->
                  let fused_task =
                    {
                      consumer with
                      Codegen.kernel = fused;
                      input_ports =
                        List.filter
                          (fun (port, _) -> port <> cin)
                          consumer.Codegen.input_ports
                        @ List.map
                            (fun (ip, shape) -> (port_rename pi ip, shape))
                            p.Codegen.input_ports;
                    }
                  in
                  (* Self-gate: the fused task must be as provably clean
                     as the two it replaces. *)
                  if Verify.check [ fused_task ] <> [] then None
                  else
                    let kernel_tasks =
                      List.filter_map
                        (fun kt ->
                          if kt.Codegen.instance = pi then None
                          else if kt == consumer then Some fused_task
                          else Some kt)
                        g.Codegen.kernel_tasks
                    in
                    let connections =
                      List.filter_map
                        (fun (c' : Arrayol.Model.connection) ->
                          if c' == c then None
                          else
                            match c'.Arrayol.Model.cto with
                            | Arrayol.Model.Part (i, ip) when i = pi ->
                                Some
                                  {
                                    c' with
                                    Arrayol.Model.cto =
                                      Arrayol.Model.Part (ci, port_rename pi ip);
                                  }
                            | _ -> Some c')
                        g.Codegen.connections
                    in
                    let levels =
                      List.filter
                        (fun level -> level <> [])
                        (List.map
                           (List.filter (fun inst -> inst <> pi))
                           g.Codegen.levels)
                    in
                    let stats =
                      {
                        Gpu.Fuse.kernels_eliminated = 1;
                        launches_saved = saved_launches;
                        buffers_eliminated = 1;
                        bytes_saved = 2 * 4 * Shape.size pshape;
                      }
                    in
                    Some ({ g with Codegen.kernel_tasks; connections; levels }, stats))
          | _ -> None)
      | _ -> None)
  | _ -> None

(* Every fusible connection of [g] as a named thunk — one rewrite move
   each for the autotuner, and the worklist for [optimize].  Candidates
   do not re-render sources; callers render the final winner once. *)
let candidates (g : Codegen.generated) =
  List.filter_map
    (fun (c : Arrayol.Model.connection) ->
      match c.Arrayol.Model.cfrom with
      | Arrayol.Model.Part (pi, _) ->
          Some ("fuse:" ^ pi, fun () -> try_fuse g c)
      | _ -> None)
    g.Codegen.connections

let optimize (g : Codegen.generated) =
  let g, stats = Optimizer.Tuner.fuse_fixpoint candidates g in
  ((if stats.Gpu.Fuse.kernels_eliminated > 0 then Codegen.render g else g), stats)
