open Ndarray
open Gpu.Kir_c

let dev name = "d_" ^ Kernelize.sanitize name

let host name = "h_" ^ Kernelize.sanitize name

(* Render a host block as plain C (the for-loop tilers of the generic
   variant; vector operations are printed as comments since the host
   compiler of the real system handles them natively). *)
let host_block_code stmts =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "    /* host-resident SAC code (not a CUDA-WITH-loop) */\n";
  List.iter
    (fun stmt ->
      let text = Format.asprintf "%a" Sac.Ast.pp_stmt stmt in
      String.split_on_char '\n' text
      |> List.iter (fun line -> Buffer.add_string buf ("    // " ^ line ^ "\n")))
    stmts;
  Buffer.contents buf

let host_steps (plan : Plan.t) =
  let on_device : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let sizes : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (p, shape) -> Hashtbl.replace sizes p (Shape.size shape))
    plan.Plan.params;
  let steps = ref [] in
  let push s = steps := s :: !steps in
  let ensure_device v =
    if not (Hashtbl.mem on_device v) then begin
      let len = try Hashtbl.find sizes v with Not_found -> 0 in
      push (Alloc { dst = dev v; len });
      push (Upload { dst = dev v; src = host v; len });
      Hashtbl.replace on_device v ()
    end
  in
  let kernels = ref [] in
  List.iter
    (fun item ->
      match item with
      | Plan.Const_array { target; shape; fill } ->
          Hashtbl.replace sizes target (Shape.size shape);
          push
            (Comment
               (Printf.sprintf "%s = constant array (%d) of shape %s"
                  (host target) fill (Shape.to_string shape)))
      | Plan.Copy { target; source } ->
          (match Hashtbl.find_opt sizes source with
          | Some n -> Hashtbl.replace sizes target n
          | None -> ());
          if Hashtbl.mem on_device source then
            Hashtbl.replace on_device target ();
          push
            (Comment (Printf.sprintf "%s aliases %s" (host target) (host source)))
      | Plan.Device_withloop { target; swith; kernels = ks; label; _ } ->
          let out_shape =
            Shape.concat swith.Sac.Scalarize.frame
              swith.Sac.Scalarize.cell_shape
          in
          Hashtbl.replace sizes target (Shape.size out_shape);
          push (Comment (Printf.sprintf "CUDA-WITH-loop: %s" label));
          List.iter
            (fun (a, _) -> ensure_device a)
            swith.Sac.Scalarize.arrays;
          push (Alloc { dst = dev target; len = Shape.size out_shape });
          Hashtbl.replace on_device target ();
          List.iter
            (fun ((k : Gpu.Kir.t), grid) ->
              kernels := (k, grid) :: !kernels;
              (* Array parameters are sanitised array names, so their
                 device buffer is [dev] of the name itself. *)
              let args =
                List.map
                  (fun (p : Gpu.Kir.param) ->
                    let pname = p.Gpu.Kir.pname in
                    (pname, dev (if pname = "out" then target else pname)))
                  k.Gpu.Kir.params
              in
              push (Launch { kernel = k; grid; args }))
            ks
      | Plan.Host_block { stmts; reads; _ } ->
          List.iter
            (fun v ->
              if Hashtbl.mem on_device v then begin
                let len = try Hashtbl.find sizes v with Not_found -> 0 in
                push (Download { dst = host v; src = dev v; len });
                Hashtbl.remove on_device v
              end)
            reads;
          push (Host_code (host_block_code stmts)))
    plan.Plan.items;
  (* Result back to the host for display. *)
  if Hashtbl.mem on_device plan.Plan.result then
    push
      (Download
         {
           dst = host plan.Plan.result;
           src = dev plan.Plan.result;
           len = Shape.size plan.Plan.result_shape;
         });
  List.iter
    (fun item ->
      match item with
      | Plan.Device_withloop { target; _ } ->
          if Hashtbl.mem on_device target then push (Free { name = dev target })
      | _ -> ())
    plan.Plan.items;
  (List.rev !kernels, List.rev !steps)

let source ~name plan =
  let kernels, steps = host_steps plan in
  Cuda.Emit.program ~name ~kernels ~steps
