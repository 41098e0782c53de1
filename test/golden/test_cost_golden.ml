(* Cost-record golden: the MD5 of the full {!Gpu.Kir.cost} record —
   profile fields and the static access summary, floats printed
   exactly with %h — that {!Gpu.Kir.static_cost} derives for every
   kernel of the 72x64 downscaler plan and of every plan one optimizer
   move away from it (fuse!, single-pair fuse, interchange, tile:x2,
   tile:x4), on the SAC route (generic and non-generic) and the
   Gaspard2 route.  The static_cost = profile_threads differentials
   compare only the profile fields; this pins the summary too, so a
   rewrite of the static evaluator must reproduce it bit for bit. *)

let rows = 72

let cols = 64

let md5 s = Digest.to_hex (Digest.string s)

let cls = function `Row -> "row" | `Column -> "column" | `Gather -> "gather"

let buffer_text (b : Gpu.Kir.buffer_access) =
  Printf.sprintf "  buffer %s reads=%h class=%s burst=%h eff=%h overlap=%h bank=%d\n"
    b.Gpu.Kir.ba_buffer b.ba_reads (cls b.ba_class) b.ba_burst b.ba_efficiency
    b.ba_overlap b.ba_bank_conflict

let branch_text (b : Gpu.Kir.branch_summary) =
  Printf.sprintf "  branch %s divergent=%b ops=%h stores=%h\n"
    (Gpu.Kir_c.expr_text b.Gpu.Kir.br_cond)
    b.br_divergent b.br_ops b.br_stores

let cost_text (c : Gpu.Kir.cost) =
  let b = Buffer.create 256 in
  Printf.bprintf b "reads=%h writes=%h ops=%h access=%s burst=%h\n"
    c.Gpu.Kir.reads_per_thread c.writes_per_thread c.ops_per_thread
    (cls c.access) c.read_burst;
  (match c.summary with
  | None -> Buffer.add_string b "no summary\n"
  | Some s ->
      List.iter (fun x -> Buffer.add_string b (buffer_text x)) s.Gpu.Kir.as_buffers;
      List.iter (fun x -> Buffer.add_string b (branch_text x)) s.as_branches;
      Printf.bprintf b "  divergent=%d divergent_ops=%h stranded=%d warp=%d\n"
        s.as_divergent_branches s.as_divergent_ops s.as_stranded_lanes
        s.as_warp_size);
  Buffer.contents b

(* Every kernel of one plan, in plan order, with its grid and cost. *)
let plan_text kernels =
  String.concat ""
    (List.map
       (fun ((k : Gpu.Kir.t), grid) ->
         Printf.sprintf "%s %s\n%s" k.Gpu.Kir.kname
           (Ndarray.Shape.to_string grid)
           (match Gpu.Kir.static_cost k ~grid with
           | Ok c -> cost_text c
           | Error m -> "error " ^ m ^ "\n"))
       kernels)

let sac_kernels (plan : Sac_cuda.Plan.t) =
  List.concat_map
    (function Sac_cuda.Plan.Device_withloop { kernels; _ } -> kernels | _ -> [])
    plan.Sac_cuda.Plan.items

let gaspard_kernels (gen : Mde.Codegen.generated) =
  List.map
    (fun (kt : Mde.Codegen.kernel_task) -> (kt.Mde.Codegen.kernel, kt.Mde.Codegen.grid))
    gen.Mde.Codegen.kernel_tasks

(* The base plan and each plan one applicable move away, by rule. *)
let one_move ~base ~moves ~kernels =
  ("base", fun () -> plan_text (kernels base))
  :: List.filter_map
       (fun (c : _ Optimizer.Search.candidate) ->
         match c.apply () with
         | Some st -> Some (c.rule, fun () -> plan_text (kernels st))
         | None -> None)
       (moves base)

let sac_cases name ~generic =
  let plan, _ =
    Sac_cuda.Compile.plan_of_source ~opt:Optimizer.Mode.Off
      (Sac.Programs.downscaler ~generic ~rows ~cols)
      ~entry:"main"
  in
  let base = { Sac_cuda.Autotune.plan; fstats = Gpu.Fuse.no_stats; undo = None } in
  let cases =
    one_move ~base
      ~moves:(Sac_cuda.Autotune.moves ~device:Gpu.Device.gtx480)
      ~kernels:(fun st -> sac_kernels st.Sac_cuda.Autotune.plan)
  in
  List.map (fun (rule, text) -> (name ^ " " ^ rule, text)) cases

let gaspard_cases () =
  let gen =
    Mde.Chain.transform_exn ~opt:Optimizer.Mode.Off
      (Mde.Chain.downscaler_model ~rows ~cols)
  in
  let base = { Mde.Autotune.gen; fstats = Gpu.Fuse.no_stats; undo = None } in
  List.map
    (fun (rule, text) -> ("gaspard " ^ rule, text))
    (one_move ~base ~moves:Mde.Autotune.moves
       ~kernels:(fun st -> gaspard_kernels st.Mde.Autotune.gen))

let expected =
  [
    ("sac base", "7814940f7823e2eabe8989a85a1bea7a");
    ("sac fuse!", "4668de3aeb5731a692f51b5365a3b5fd");
    ("sac fuse:output$23", "4668de3aeb5731a692f51b5365a3b5fd");
    ("sac interchange:output$23", "673e0ae419ef0d79d6764cc757189aed");
    ("sac tile:output$23:x2", "59aedf032d355a513350ee5d21c47c81");
    ("sac tile:output$23:x4", "7d6bee6ac26df64ba6b27a038b8eedc7");
    ("sac interchange:output$51", "aeb51d93a83d86be3838fc219cea6565");
    ("sac tile:output$51:x2", "1b914dcc30d5862f11a51529e365ea21");
    ("sac tile:output$51:x4", "fac5d96f4f40a20fd2ec939a2a02c092");
    ("sac-generic base", "7857ade118b73a9007238cd7714ddd48");
    ("sac-generic interchange:output$17", "39f9b5f2e7c32a232f3f41c637d07a65");
    ("sac-generic tile:output$17:x2", "a82647094e008cf9504dcb964c7397fc");
    ("sac-generic tile:output$17:x4", "e6e4c6005191e77c620c43a900c19824");
    ("sac-generic interchange:output$52", "1c8bb7744757d9bf5a8460477c199c9b");
    ("sac-generic tile:output$52:x2", "0058ce844cb1ffefa196277ba4b74883");
    ("sac-generic tile:output$52:x4", "c9d763af8160a5501ca0157fd9bd5caf");
    ("gaspard base", "8cd6671050fd7887173e9568727fce50");
    ("gaspard fuse!", "1a056e658136f94267d539afdf65804a");
    ("gaspard fuse:rhf", "c8574a8ac15a94e8c86d92fadfac254f");
    ("gaspard fuse:ghf", "b43fb8c7238f41fa195b51e390e88968");
    ("gaspard fuse:bhf", "e8c6a159b48dbbbed510bcc124f7732d");
    ("gaspard interchange:rhf", "f1119ce6371696a48a37d1080a79c792");
    ("gaspard tile:rhf:x2", "d06881f3c9be4c43298febb1cdda2be5");
    ("gaspard tile:rhf:x4", "da0f669f60478888986dbfc0151b9a98");
    ("gaspard interchange:rvf", "2edc99b72adbc4e41214d88dab7b4e0e");
    ("gaspard tile:rvf:x2", "85f9017db39329dcb0dcda5723203755");
    ("gaspard tile:rvf:x4", "64f580188536e416151360c599681c76");
    ("gaspard interchange:ghf", "211340b6e13c0ab180bf372c23b31c9c");
    ("gaspard tile:ghf:x2", "28eda5037d2f5e9260d12186451c8031");
    ("gaspard tile:ghf:x4", "6520a20d6a3e98f327dbc99bd4016cbf");
    ("gaspard interchange:gvf", "f810ba159a540bf97a634e1cb20f8d0c");
    ("gaspard tile:gvf:x2", "d7f92cd196c8fffa05bf35a0eeb9ce4f");
    ("gaspard tile:gvf:x4", "073ec34058a3b50a296d8214a33b41a7");
    ("gaspard interchange:bhf", "5c89773ebeb87a316e0ff86aec9b71a3");
    ("gaspard tile:bhf:x2", "b85740ff8538a50cf23d8576cc2d1703");
    ("gaspard tile:bhf:x4", "5a24c44897a6e4f88451a4831ee5d82e");
    ("gaspard interchange:bvf", "faf099d43eaf8db2007e7446a380c0a5");
    ("gaspard tile:bvf:x2", "2e9fdac976db095f89220a7c73f240b1");
    ("gaspard tile:bvf:x4", "26a27d0316ecfcaab37f751fc9d634cd");
  ]

(* Every case is compared before failing, so one run names all the
   moves whose cost records changed. *)
let check cases () =
  let actual = List.map (fun (name, text) -> (name, md5 (text ()))) cases in
  let moved =
    List.filter_map
      (fun (name, d) ->
        if List.assoc_opt name expected = Some d then None
        else Some (Printf.sprintf "%s (now %s)" name d))
      actual
    @ List.filter_map
        (fun (name, _) ->
          if List.mem_assoc name actual then None
          else Some (name ^ " (no longer reachable)"))
        expected
  in
  if moved <> [] then
    Alcotest.failf "cost record digest changed:\n%s" (String.concat "\n" moved)

let () =
  let cases =
    sac_cases "sac" ~generic:false
    @ sac_cases "sac-generic" ~generic:true
    @ gaspard_cases ()
  in
  Alcotest.run "cost golden"
    [
      ( "cost records",
        [
          Alcotest.test_case "one move from the 72x64 downscaler" `Quick
            (check cases);
        ] );
    ]
