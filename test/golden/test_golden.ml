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
    ("sac horizontal-generic off cu", "0493615a654bd57a1be029756b0a1fb8");
    ("sac horizontal-generic off opencl.cl", "afd35eb05bcd75e1317e3674bbae3dee");
    ("sac horizontal-generic off opencl.host", "2e212306e6c85c34629f98cf0d726e64");
    ("sac horizontal-generic off opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac horizontal-generic off metal.metal", "0a2de98f6990aff8e305c8a66fcb6859");
    ("sac horizontal-generic off metal.host", "9fc5d51bfa45bd356a7e8b9e4f2d4e30");
    ("sac horizontal-generic off metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac vertical off cu", "160448fc129ffef630bfce9938bc58fc");
    ("sac vertical off opencl.cl", "aaa70d27c6b879616fe520cb99e5d92d");
    ("sac vertical off opencl.host", "5a4a6cf75a07ec86895e0e4851695557");
    ("sac vertical off opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac vertical off metal.metal", "65c0e23afbd623dcaa73353acb4f983b");
    ("sac vertical off metal.host", "3e28e1dc24dee64ba89f5eb08349b6d2");
    ("sac vertical off metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac vertical-generic off cu", "290d087b4953fed80b6c1a15ed62a3d6");
    ("sac vertical-generic off opencl.cl", "58132da49ed4e551ce29320f3dd509da");
    ("sac vertical-generic off opencl.host", "58910310e89f6e1ddfa05ab84871ddd4");
    ("sac vertical-generic off opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac vertical-generic off metal.metal", "28c8f1dcc0fa40ae59225743c378d8e5");
    ("sac vertical-generic off metal.host", "0eaef2aae3dc372095fdd683796f4cda");
    ("sac vertical-generic off metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac downscaler off cu", "a37b2cef392c9b661a0ee888a1a4fa06");
    ("sac downscaler off opencl.cl", "ca22e202f8351f5705713ec8c9196585");
    ("sac downscaler off opencl.host", "194e575b4d3669e35b525fc0aba8bd1d");
    ("sac downscaler off opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac downscaler off metal.metal", "2150f2b858021c8a61afa9f0100428a9");
    ("sac downscaler off metal.host", "badf72eba2781eb5a72a9946572c5bfe");
    ("sac downscaler off metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac downscaler-generic off cu", "67f4dad5b77478cb633dd58962d9bcb2");
    ("sac downscaler-generic off opencl.cl", "fe919523148674a68dfe2f8b1e080d3b");
    ("sac downscaler-generic off opencl.host", "23c9ca142792c7434da0c9893e71b27d");
    ("sac downscaler-generic off opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac downscaler-generic off metal.metal", "512d158b9b0d01ffa5d41b9962dcd1e5");
    ("sac downscaler-generic off metal.host", "453f54d46c727e0123c9a130b22065f9");
    ("sac downscaler-generic off metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("mde chain off cl_source", "1f809d83a004ad1f16c45562cce0b6e3");
    ("mde chain off host_source", "ea8cd82f31e5d90e37da74f3ba627f84");
    ("mde chain off makefile", "742a53a570ad969c7373eefbfb5d01c7");
    ("mde chain off cuda kernels", "16f9178c9a86a359698f8b7c422ccd7e");
    ("mde chain off metal_file", "c64c700d70a493f768b42ab127d6eb73");
    ("sac horizontal fuse cu", "804e996d475e938361d9ea22222eae15");
    ("sac horizontal fuse opencl.cl", "161a001077923d7d9a94551bf95478f5");
    ("sac horizontal fuse opencl.host", "df74bfa33465bcc2751f3b60c1169e97");
    ("sac horizontal fuse opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac horizontal fuse metal.metal", "c7bdfa589b2e9ad7b68f6e91844742e2");
    ("sac horizontal fuse metal.host", "2a612d5553cff7fd488f4b078a9c6856");
    ("sac horizontal fuse metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac horizontal-generic fuse cu", "76b1a3f3e78a39fced821434f7861f62");
    ("sac horizontal-generic fuse opencl.cl", "5732d87dfe416152d7856ba66ab63cdf");
    ("sac horizontal-generic fuse opencl.host", "fe8664cd7fd651bff8853ae1e4330abb");
    ("sac horizontal-generic fuse opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac horizontal-generic fuse metal.metal", "0c8da0452ae84347050f04ec1c3e74b4");
    ("sac horizontal-generic fuse metal.host", "727528bde58cc48777c1e1620d028efa");
    ("sac horizontal-generic fuse metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac vertical fuse cu", "80865decb0ab610c9109f242c15f5d59");
    ("sac vertical fuse opencl.cl", "fe7ece51c6a181f8b920f82f89185944");
    ("sac vertical fuse opencl.host", "309a688390995f379f1276dea8085d97");
    ("sac vertical fuse opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac vertical fuse metal.metal", "101fac26aaf8c308cfd0e75da97176ee");
    ("sac vertical fuse metal.host", "12866a7c975357aa4626439b39a4f64b");
    ("sac vertical fuse metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac vertical-generic fuse cu", "1d24a1e2176acbbdd481fdbc8251cb34");
    ("sac vertical-generic fuse opencl.cl", "5a2d132aeaea02e14a57a72b16934813");
    ("sac vertical-generic fuse opencl.host", "f6efb9f5d0cdf8d32d7ada3b9576d8a0");
    ("sac vertical-generic fuse opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac vertical-generic fuse metal.metal", "e1e944543dbf75db7045e8ef9f35e88b");
    ("sac vertical-generic fuse metal.host", "01962b0e04e0aa45631475032da5c32c");
    ("sac vertical-generic fuse metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac downscaler fuse cu", "4c1956547ba61cef8ff7343c9529dd2e");
    ("sac downscaler fuse opencl.cl", "1708c342a1697b818f7f72c4dfa3fd77");
    ("sac downscaler fuse opencl.host", "d233bac63f1998ec87c27398f9466218");
    ("sac downscaler fuse opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac downscaler fuse metal.metal", "0238efefe06ed66489a2c4057aa4630e");
    ("sac downscaler fuse metal.host", "855bf7c7e5e08eef096778a3e50a84ce");
    ("sac downscaler fuse metal.makefile", "fd63a64ab1531ed1f97e0691db7a1280");
    ("sac downscaler-generic fuse cu", "9f5c4202ad4354a54a17d3d38cd5bfad");
    ("sac downscaler-generic fuse opencl.cl", "16980c2aedc7a0001f82f3d2f43ff38f");
    ("sac downscaler-generic fuse opencl.host", "cc81bdbafcc3373c78e9545547f58e56");
    ("sac downscaler-generic fuse opencl.makefile", "b08a9db0ea91fd656ba9c8f2a6b45a0b");
    ("sac downscaler-generic fuse metal.metal", "1c8746dc7c4ce09624bf481f9a69ff07");
    ("sac downscaler-generic fuse metal.host", "c09882be9386e2c9770fa8978ca6a0de");
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
