(* Byte-identity golden for every emitted artefact: the MD5 of each
   source text the three emitters produce for the six built-in SAC
   programs and the Gaspard2 downscaler chain, at 72x64, under
   --opt off and fuse.  A printer refactor that changes one byte of
   generated code fails here with the artefact's name. *)

let rows = 72

let cols = 64

let md5 s = Digest.to_hex (Digest.string s)

let opts = [ ("off", Optimizer.Mode.Off); ("fuse", Optimizer.Mode.Fuse) ]

let programs =
  [
    ("horizontal", Sac.Programs.horizontal ~generic:false);
    ("horizontal-generic", Sac.Programs.horizontal ~generic:true);
    ("vertical", Sac.Programs.vertical ~generic:false);
    ("vertical-generic", Sac.Programs.vertical ~generic:true);
    ("downscaler", Sac.Programs.downscaler ~generic:false);
    ("downscaler-generic", Sac.Programs.downscaler ~generic:true);
  ]

(* Every artefact of one SAC program: the .cu unit and both
   [Backend.sources] records, field by field. *)
let sac_artefacts opt src =
  let plan, _ =
    Sac_cuda.Compile.plan_of_source ~opt (src ~rows ~cols) ~entry:"main"
  in
  let name = "golden" in
  let ocl = Sac_opencl.Backend.sources ~name plan in
  let mtl = Sac_metal.Backend.sources ~name plan in
  [
    ("cu", Sac_cuda.Emit_cu.source ~name plan);
    ("opencl.cl", ocl.Sac_opencl.Backend.cl);
    ("opencl.host", ocl.Sac_opencl.Backend.host);
    ("opencl.makefile", ocl.Sac_opencl.Backend.makefile);
    ("metal.metal", mtl.Sac_metal.Backend.metal);
    ("metal.host", mtl.Sac_metal.Backend.host);
    ("metal.makefile", mtl.Sac_metal.Backend.makefile);
  ]

(* The Gaspard2 chain's own sources, plus its kernels printed through
   the CUDA and Metal kernel printers. *)
let chain_artefacts opt =
  let gen =
    Mde.Chain.transform_exn ~opt (Mde.Chain.downscaler_model ~rows ~cols)
  in
  let kernels =
    List.map
      (fun kt -> (kt.Mde.Codegen.kernel, kt.Mde.Codegen.grid))
      gen.Mde.Codegen.kernel_tasks
  in
  [
    ("cl_source", gen.Mde.Codegen.cl_source);
    ("host_source", gen.Mde.Codegen.host_source);
    ("makefile", gen.Mde.Codegen.makefile);
    ( "cuda kernels",
      String.concat "\n"
        (List.map (fun (k, grid) -> Cuda.Emit.kernel ~grid k) kernels) );
    ("metal_file", Metal.Emit.metal_file ~name:"golden" kernels);
  ]

let cases =
  List.concat_map
    (fun (oname, opt) ->
      List.map
        (fun (pname, src) ->
          (Printf.sprintf "sac %s %s" pname oname, fun () -> sac_artefacts opt src))
        programs
      @ [ (Printf.sprintf "mde chain %s" oname, fun () -> chain_artefacts opt) ])
    opts

let expected =
  [
    ("sac horizontal off cu", "84112b1a7685e6fef851fb00704d11ad");
    ("sac horizontal off opencl.cl", "405e06f9c944b0a185a63d553f60d735");
    ("sac horizontal off opencl.host", "15f4e8fec5f41ffe6b00b698a3d39830");
    ("sac horizontal off opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac horizontal off metal.metal", "790e20b2cb43c7983d1ee6121f57be74");
    ("sac horizontal off metal.host", "59cd2206f1b25eded63f79ada2bffe33");
    ("sac horizontal off metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac horizontal-generic off cu", "15aa46586c07819cf1ebaaf82df080c2");
    ("sac horizontal-generic off opencl.cl", "ba85fea4fb193600f5b24a61fb716e0f");
    ("sac horizontal-generic off opencl.host", "7ea12de146f851a62169a24e18f2745c");
    ("sac horizontal-generic off opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac horizontal-generic off metal.metal", "87d564faeb5254fb977c79dbd27dc304");
    ("sac horizontal-generic off metal.host", "1ab7b861794d25f53a0ad524046d3742");
    ("sac horizontal-generic off metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac vertical off cu", "4e0aa626b48b9d01c371f4f55f088144");
    ("sac vertical off opencl.cl", "1d3a5dd2a8d33f7d1e59fc5976e59da2");
    ("sac vertical off opencl.host", "7894db4098debbf3defb5eb4262909e0");
    ("sac vertical off opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac vertical off metal.metal", "0798e5d7c3a9317b59eccdb19cdfedce");
    ("sac vertical off metal.host", "c12a205e815305c22158acf6c77e1559");
    ("sac vertical off metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac vertical-generic off cu", "c99df406c6ad3a0d0acaf04a0ed12e5e");
    ("sac vertical-generic off opencl.cl", "ff17490efac1b9665c59feae407dea86");
    ("sac vertical-generic off opencl.host", "19d1a392c678745cfbbb62e9de85a9c4");
    ("sac vertical-generic off opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac vertical-generic off metal.metal", "59be99ee078194eed0c62021fe3735e5");
    ("sac vertical-generic off metal.host", "0f329368e1f938231f6ba4e9ee9116cd");
    ("sac vertical-generic off metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac downscaler off cu", "b9a5a44d0c203034e57f196ff44cbc1d");
    ("sac downscaler off opencl.cl", "b1ce67f8c5a9f110090517848b4e6051");
    ("sac downscaler off opencl.host", "7975519389644920120a4467b608f7b6");
    ("sac downscaler off opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac downscaler off metal.metal", "bbd450d9aad52d06b9df09743c7cf3a1");
    ("sac downscaler off metal.host", "5344254dc2d7fcb401fbf3938bba9fe3");
    ("sac downscaler off metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac downscaler-generic off cu", "5f24d112fd276b8939668f8b2ea401fc");
    ("sac downscaler-generic off opencl.cl", "91af099ee83c057fbb5ef83dcf1bef0c");
    ("sac downscaler-generic off opencl.host", "6d907115cbcb6057fb0f276c0de28a30");
    ("sac downscaler-generic off opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac downscaler-generic off metal.metal", "461c37712afc68fd864b2cf47400a8c4");
    ("sac downscaler-generic off metal.host", "e3bc8dc09e92dca647766cd628ad6111");
    ("sac downscaler-generic off metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("mde chain off cl_source", "1f809d83a004ad1f16c45562cce0b6e3");
    ("mde chain off host_source", "ea8cd82f31e5d90e37da74f3ba627f84");
    ("mde chain off makefile", "742a53a570ad969c7373eefbfb5d01c7");
    ("mde chain off cuda kernels", "16f9178c9a86a359698f8b7c422ccd7e");
    ("mde chain off metal_file", "c64c700d70a493f768b42ab127d6eb73");
    ("sac horizontal fuse cu", "84112b1a7685e6fef851fb00704d11ad");
    ("sac horizontal fuse opencl.cl", "405e06f9c944b0a185a63d553f60d735");
    ("sac horizontal fuse opencl.host", "15f4e8fec5f41ffe6b00b698a3d39830");
    ("sac horizontal fuse opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac horizontal fuse metal.metal", "790e20b2cb43c7983d1ee6121f57be74");
    ("sac horizontal fuse metal.host", "59cd2206f1b25eded63f79ada2bffe33");
    ("sac horizontal fuse metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac horizontal-generic fuse cu", "15aa46586c07819cf1ebaaf82df080c2");
    ("sac horizontal-generic fuse opencl.cl", "ba85fea4fb193600f5b24a61fb716e0f");
    ("sac horizontal-generic fuse opencl.host", "7ea12de146f851a62169a24e18f2745c");
    ("sac horizontal-generic fuse opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac horizontal-generic fuse metal.metal", "87d564faeb5254fb977c79dbd27dc304");
    ("sac horizontal-generic fuse metal.host", "1ab7b861794d25f53a0ad524046d3742");
    ("sac horizontal-generic fuse metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac vertical fuse cu", "4e0aa626b48b9d01c371f4f55f088144");
    ("sac vertical fuse opencl.cl", "1d3a5dd2a8d33f7d1e59fc5976e59da2");
    ("sac vertical fuse opencl.host", "7894db4098debbf3defb5eb4262909e0");
    ("sac vertical fuse opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac vertical fuse metal.metal", "0798e5d7c3a9317b59eccdb19cdfedce");
    ("sac vertical fuse metal.host", "c12a205e815305c22158acf6c77e1559");
    ("sac vertical fuse metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac vertical-generic fuse cu", "c99df406c6ad3a0d0acaf04a0ed12e5e");
    ("sac vertical-generic fuse opencl.cl", "ff17490efac1b9665c59feae407dea86");
    ("sac vertical-generic fuse opencl.host", "19d1a392c678745cfbbb62e9de85a9c4");
    ("sac vertical-generic fuse opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac vertical-generic fuse metal.metal", "59be99ee078194eed0c62021fe3735e5");
    ("sac vertical-generic fuse metal.host", "0f329368e1f938231f6ba4e9ee9116cd");
    ("sac vertical-generic fuse metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac downscaler fuse cu", "91dfeb677ea332a32e26e27a873ed1c0");
    ("sac downscaler fuse opencl.cl", "9254314033c97230bbbef2618dbc4e80");
    ("sac downscaler fuse opencl.host", "a01f8866d1fbaf8e82b4b2deabbff5a4");
    ("sac downscaler fuse opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac downscaler fuse metal.metal", "821342e402909a3f74ea4534ea1a99a1");
    ("sac downscaler fuse metal.host", "9a5cee4dd25d0d8356a32711e10ae755");
    ("sac downscaler fuse metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac downscaler-generic fuse cu", "5f24d112fd276b8939668f8b2ea401fc");
    ("sac downscaler-generic fuse opencl.cl", "91af099ee83c057fbb5ef83dcf1bef0c");
    ("sac downscaler-generic fuse opencl.host", "6d907115cbcb6057fb0f276c0de28a30");
    ("sac downscaler-generic fuse opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac downscaler-generic fuse metal.metal", "461c37712afc68fd864b2cf47400a8c4");
    ("sac downscaler-generic fuse metal.host", "e3bc8dc09e92dca647766cd628ad6111");
    ("sac downscaler-generic fuse metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("mde chain fuse cl_source", "2da20a135730b3f201e9965b7df21029");
    ("mde chain fuse host_source", "bdb61800a24b5fe865758081c446d9b2");
    ("mde chain fuse makefile", "742a53a570ad969c7373eefbfb5d01c7");
    ("mde chain fuse cuda kernels", "acbd8e27eb0798229f2768f16f330bd7");
    ("mde chain fuse metal_file", "4ca22404b3e15b7289e7378448ed6730");
  ]

(* Every field is compared before failing, so one run names all the
   artefacts whose bytes moved. *)
let check case artefacts () =
  let changed =
    List.filter_map
      (fun (field, text) ->
        let key = case ^ " " ^ field in
        let actual = md5 text in
        if List.assoc_opt key expected = Some actual then None
        else Some (Printf.sprintf "%s (now %s)" key actual))
      (artefacts ())
  in
  if changed <> [] then
    Alcotest.failf "digest changed:\n%s" (String.concat "\n" changed)

let () =
  Alcotest.run "golden"
    [
      ( "golden",
        List.map
          (fun (case, artefacts) ->
            Alcotest.test_case case `Quick (check case artefacts))
          cases );
    ]
