(* Differential fuzzing of the SAC pipeline.

   Random single-input pipelines of 1-D with-loops (dense producers,
   stepped partitions, width>1 lattices, modarray bases, wrapped affine
   reads) are run through four routes that must agree bit-exactly:

     1. the reference interpreter on the source program;
     2. the interpreter on the optimised (inlined/folded/DCE'd) program;
     3. the compiled plan executed on the simulated device;
     4. the same plan compiled without Figure 8 generator splitting;

   and the printed program must re-parse to something equivalent. *)

(* ------------------------------------------------------------------ *)
(* Program generator                                                   *)
(* ------------------------------------------------------------------ *)

type stage =
  | Dense of (int * int * int)
      (** cell = a[(i*c1 + c2) mod n] * m + i, one full generator *)
  | Partition of int * (int * int) list
      (** step k; per offset: (c1, c2) for the read of that class *)
  | Widened of (int * int)
      (** two width-2 generators with step 4 covering offsets 0-3 *)
  | Mod_patch of (int * int * int)
      (** modarray over the previous array, patching every [step]-th
          element from a wrapped read *)

type fuzz_program = { n : int; stages : stage list }

let gen_stage n =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun c1 c2 m -> Dense (c1, c2, m))
            (int_range 1 3) (int_range 0 (n - 1)) (int_range 1 4) );
        ( 2,
          int_range 2 3 >>= fun k ->
          list_repeat k (pair (int_range 1 3) (int_range 0 (n - 1)))
          >|= fun reads -> Partition (k, reads) );
        (1, pair (int_range 1 2) (int_range 0 (n - 1)) >|= fun p -> Widened p);
        ( 2,
          map3
            (fun s c1 c2 -> Mod_patch (s, c1, c2))
            (int_range 2 4) (int_range 1 3) (int_range 0 (n - 1)) );
      ])

let gen_program =
  QCheck.Gen.(
    oneofl [ 12; 24 ] >>= fun n ->
    int_range 1 4 >>= fun depth ->
    list_repeat depth (gen_stage n) >|= fun stages -> { n; stages })

let show_stage = function
  | Dense (c1, c2, m) -> Printf.sprintf "Dense(%d,%d,%d)" c1 c2 m
  | Partition (k, reads) ->
      Printf.sprintf "Partition(%d,[%s])" k
        (String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) reads))
  | Widened (c1, c2) -> Printf.sprintf "Widened(%d,%d)" c1 c2
  | Mod_patch (s, c1, c2) -> Printf.sprintf "ModPatch(%d,%d,%d)" s c1 c2

let show_program p =
  Printf.sprintf "n=%d [%s]" p.n
    (String.concat "; " (List.map show_stage p.stages))

let arb_program = QCheck.make ~print:show_program gen_program

(* ------------------------------------------------------------------ *)
(* AST construction                                                    *)
(* ------------------------------------------------------------------ *)

let num n = Sac.Ast.Num n

let vec l = Sac.Ast.Vec (List.map num l)

let read src ~c1 ~c2 ~n iv_var =
  (* src[[(iv*c1 + c2) mod n]] *)
  Sac.Ast.Select
    ( Sac.Ast.Var src,
      Sac.Ast.Vec
        [
          Sac.Ast.Bin
            ( Sac.Ast.Mod,
              Sac.Ast.Bin
                ( Sac.Ast.Add,
                  Sac.Ast.Bin (Sac.Ast.Mul, Sac.Ast.Var iv_var, num c1),
                  num c2 ),
              num n );
        ] )

let gen_of ~lb ~ub ?step ?width ~cell () =
  {
    Sac.Ast.lb = Sac.Ast.Bexpr (vec [ lb ]);
    lb_incl = true;
    pat = Sac.Ast.Pvec [ "i" ];
    ub = Sac.Ast.Bexpr (vec [ ub ]);
    ub_incl = false;
    step = Option.map (fun s -> vec [ s ]) step;
    width = Option.map (fun w -> vec [ w ]) width;
    locals = [];
    cell;
  }

let with_of ~gens ~op = Sac.Ast.With { Sac.Ast.gens; op }

let stage_expr n src = function
  | Dense (c1, c2, m) ->
      with_of
        ~gens:
          [
            gen_of ~lb:0 ~ub:n
              ~cell:
                (Sac.Ast.Bin
                   ( Sac.Ast.Add,
                     Sac.Ast.Bin
                       (Sac.Ast.Mul, read src ~c1 ~c2 ~n "i", num m),
                     Sac.Ast.Var "i" ))
              ();
          ]
        ~op:(Sac.Ast.Genarray (vec [ n ], None))
  | Partition (k, reads) ->
      with_of
        ~gens:
          (List.mapi
             (fun off (c1, c2) ->
               gen_of ~lb:off ~ub:n ~step:k
                 ~cell:
                   (Sac.Ast.Bin (Sac.Ast.Add, read src ~c1 ~c2 ~n "i", num off))
                 ())
             reads)
        ~op:(Sac.Ast.Genarray (vec [ n ], Some (num 7)))
  | Widened (c1, c2) ->
      with_of
        ~gens:
          [
            gen_of ~lb:0 ~ub:n ~step:4 ~width:2
              ~cell:(read src ~c1 ~c2 ~n "i") ();
            gen_of ~lb:2 ~ub:n ~step:4 ~width:2
              ~cell:
                (Sac.Ast.Bin (Sac.Ast.Add, read src ~c1 ~c2 ~n "i", num 1))
              ();
          ]
        ~op:(Sac.Ast.Genarray (vec [ n ], None))
  | Mod_patch (s, c1, c2) ->
      with_of
        ~gens:
          [ gen_of ~lb:0 ~ub:n ~step:s ~cell:(read src ~c1 ~c2 ~n "i") () ]
        ~op:(Sac.Ast.Modarray (Sac.Ast.Var src))

let build_program (p : fuzz_program) =
  let stmts =
    List.concat
      (List.mapi
         (fun i stage ->
           let src = if i = 0 then "a" else Printf.sprintf "x%d" i in
           let dst = Printf.sprintf "x%d" (i + 1) in
           [ Sac.Ast.Assign (dst, stage_expr p.n src stage) ])
         p.stages)
  in
  let last = Printf.sprintf "x%d" (List.length p.stages) in
  [
    {
      Sac.Ast.fname = "main";
      params = [ (Sac.Ast.Tarray (Sac.Ast.Fixed [ p.n ]), "a") ];
      ret = Sac.Ast.Tarray (Sac.Ast.Fixed [ p.n ]);
      body = stmts @ [ Sac.Ast.Return (Sac.Ast.Var last) ];
    };
  ]

let input_of p =
  Sac.Value.of_vector (Array.init p.n (fun i -> ((i * 37) + 11) mod 97))

(* ------------------------------------------------------------------ *)
(* Differential checks                                                 *)
(* ------------------------------------------------------------------ *)

let interp prog v = Sac.Interp.run prog ~entry:"main" ~args:[ v ]

let exec_plan ?split_generators prog v =
  let plan = Sac_cuda.Compile.plan ?split_generators (List.hd prog) in
  let rt = Cuda.Runtime.init () in
  let outcome =
    Sac_cuda.Exec.run rt plan ~args:[ ("a", Sac.Value.tensor_exn v) ]
  in
  Sac.Value.Varr outcome.Sac_cuda.Exec.result

let prop_optimizer_preserves =
  QCheck.Test.make ~name:"interp(optimize p) = interp(p)" ~count:120
    arb_program (fun p ->
      let prog = build_program p in
      let v = input_of p in
      let reference = interp prog v in
      let fd, _ = Sac.Pipeline.optimize prog ~entry:"main" in
      Sac.Value.equal reference (interp [ fd ] v))

let prop_backend_matches_interp =
  QCheck.Test.make ~name:"exec(compile p) = interp(p)" ~count:80 arb_program
    (fun p ->
      let prog = build_program p in
      let v = input_of p in
      let fd, _ = Sac.Pipeline.optimize prog ~entry:"main" in
      Sac.Value.equal (interp prog v) (exec_plan [ fd ] v))

let prop_split_invariant =
  QCheck.Test.make ~name:"split and unsplit plans agree" ~count:60 arb_program
    (fun p ->
      let prog = build_program p in
      let v = input_of p in
      let fd, _ = Sac.Pipeline.optimize prog ~entry:"main" in
      Sac.Value.equal
        (exec_plan ~split_generators:true [ fd ] v)
        (exec_plan ~split_generators:false [ fd ] v))

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"interp(parse(print p)) = interp(p)" ~count:80
    arb_program (fun p ->
      let prog = build_program p in
      let v = input_of p in
      let printed = Sac.Ast.program_to_string prog in
      let reparsed = Sac.Parser.program printed in
      Sac.Value.equal (interp prog v) (interp reparsed v))

let prop_emitted_cuda_wellformed =
  QCheck.Test.make ~name:"emitted CUDA contains every kernel" ~count:40
    arb_program (fun p ->
      let prog = build_program p in
      let fd, _ = Sac.Pipeline.optimize prog ~entry:"main" in
      let plan = Sac_cuda.Compile.plan fd in
      let src = Sac_cuda.Emit_cu.source ~name:"fuzz" plan in
      let count_occurrences needle =
        let nl = String.length needle in
        let rec go i acc =
          if i + nl > String.length src then acc
          else if String.sub src i nl = needle then go (i + 1) (acc + 1)
          else go (i + 1) acc
        in
        go 0 0
      in
      count_occurrences "__global__ void" = Sac_cuda.Plan.kernel_count plan)


(* ------------------------------------------------------------------ *)
(* Static cost differential                                            *)
(* ------------------------------------------------------------------ *)

(* Random affine 2-D kernels (tap stencils with wrapped reads, an
   optional lane-parity branch and an optional constant-bound loop):
   {!Gpu.Kir.static_cost} must reproduce the execution-counted
   {!Gpu.Kir.profile_threads} profile exactly -- reads, writes and ops
   per thread, access class and burst length. *)

type fuzz_kernel = {
  fr : int;
  fc : int;
  taps : (int * int) list;
  guard : bool;
  loop : int option;
}

let gen_kernel =
  QCheck.Gen.(
    pair (int_range 3 9) (oneofl [ 8; 16; 33; 64 ]) >>= fun (fr, fc) ->
    int_range 1 4 >>= fun ntaps ->
    list_repeat ntaps (pair (int_range 0 3) (int_range 0 5)) >>= fun taps ->
    bool >>= fun guard ->
    option (int_range 1 4) >|= fun loop -> { fr; fc; taps; guard; loop })

let show_kernel k =
  Printf.sprintf "grid=[%d,%d] taps=[%s] guard=%b loop=%s" k.fr k.fc
    (String.concat ";"
       (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) k.taps))
    k.guard
    (match k.loop with None -> "-" | Some n -> string_of_int n)

let arb_kernel = QCheck.make ~print:show_kernel gen_kernel

let kir_of (f : fuzz_kernel) =
  let open Gpu.Kir in
  let wrap e m = Bin (Mod, e, Int m) in
  let tap (dr, dc) =
    Read
      ( "in",
        Bin
          ( Add,
            Bin (Mul, wrap (Bin (Add, Gid 0, Int dr)) f.fr, Int f.fc),
            wrap (Bin (Add, Gid 1, Int dc)) f.fc ) )
  in
  let value =
    List.fold_left
      (fun acc t -> Bin (Add, acc, tap t))
      (tap (List.hd f.taps))
      (List.tl f.taps)
  in
  let out_idx = Bin (Add, Bin (Mul, Gid 0, Int f.fc), Gid 1) in
  let store = Store ("out", out_idx, value) in
  let body =
    if f.guard then
      [
        If
          ( Bin (Eq, Bin (Mod, Gid 1, Int 2), Int 0),
            [ store ],
            [ Store ("out", out_idx, Bin (Add, value, Int 1)) ] );
      ]
    else [ store ]
  in
  let body =
    match f.loop with
    | None -> body
    | Some n ->
        body
        @ [
            For
              {
                var = "k";
                lo = Int 0;
                hi = Int n;
                body =
                  [
                    Store
                      ( "out",
                        out_idx,
                        Bin
                          ( Add,
                            Read
                              ( "in",
                                Bin
                                  ( Add,
                                    Bin (Mul, Gid 0, Int f.fc),
                                    wrap (Bin (Add, Gid 1, Var "k")) f.fc ) ),
                            Int 1 ) );
                  ];
              };
          ]
  in
  {
    kname = "fuzz_static";
    params =
      [
        { pname = "in"; kind = In_buffer }; { pname = "out"; kind = Out_buffer };
      ];
    grid_rank = 2;
    body;
  }

let prop_static_cost_matches_profile =
  QCheck.Test.make ~name:"static_cost = profile_threads" ~count:200 arb_kernel
    (fun f ->
      let k = kir_of f in
      let grid = [| f.fr; f.fc |] in
      let len = f.fr * f.fc in
      let args =
        [
          ( "in",
            Gpu.Kir.Buffer_arg
              { Gpu.Buffer.id = 0; name = "in"; data = Array.make len 0 } );
          ( "out",
            Gpu.Kir.Buffer_arg
              { Gpu.Buffer.id = 1; name = "out"; data = Array.make len 0 } );
        ]
      in
      let dynamic = Gpu.Kir.profile_threads k ~args ~grid in
      match Gpu.Kir.static_cost k ~grid with
      | Error m -> QCheck.Test.fail_reportf "static derivation failed: %s" m
      | Ok st ->
          let check what a b =
            if not (Float.equal a b) then
              QCheck.Test.fail_reportf "%s: static %g <> executed %g" what a b
          in
          check "reads" st.Gpu.Kir.reads_per_thread
            dynamic.Gpu.Kir.reads_per_thread;
          check "writes" st.Gpu.Kir.writes_per_thread
            dynamic.Gpu.Kir.writes_per_thread;
          check "ops" st.Gpu.Kir.ops_per_thread dynamic.Gpu.Kir.ops_per_thread;
          check "burst" st.Gpu.Kir.read_burst dynamic.Gpu.Kir.read_burst;
          if st.Gpu.Kir.access <> dynamic.Gpu.Kir.access then
            QCheck.Test.fail_reportf "access class differs";
          st.Gpu.Kir.summary <> None)

(* Scoped kernels: lets, loops and branches over a three-name pool, so
   shadowing is common.  Loaded values are bound too, but only unloaded
   names feed addresses, conditions and bounds, so every kernel derives
   statically; addresses are wrapped into the buffers so each one also
   executes. *)
let var_pool = [ "u"; "v"; "w" ]

let scoped_grid = [| 5; 40 |]

let scoped_len = 200

let in_bounds a =
  Gpu.Kir.(Bin (Mod, Bin (Max, a, Int 0), Int scoped_len))

let gen_scoped_body =
  let open QCheck.Gen in
  (* [bound]: (name, holds_loaded_value), innermost first. *)
  let pure_names bound =
    List.filter_map
      (fun n ->
        match List.assoc_opt n bound with
        | Some false -> Some n
        | _ -> None)
      var_pool
  in
  let rec addr bound depth =
    let leaves =
      [ map (fun n -> Gpu.Kir.Int n) (int_range 0 5);
        map (fun d -> Gpu.Kir.Gid d) (int_range 0 1) ]
      @
      match pure_names bound with
      | [] -> []
      | names -> [ map (fun n -> Gpu.Kir.Var n) (oneofl names) ]
    in
    if depth = 0 then oneof leaves
    else
      frequency
        [
          (2, oneof leaves);
          ( 3,
            map3
              (fun op a b -> Gpu.Kir.Bin (op, a, b))
              (oneofl Gpu.Kir.[ Add; Sub; Mul; Min; Max; Lt; Eq; And; Or ])
              (addr bound (depth - 1))
              (addr bound (depth - 1)) );
          ( 1,
            map3
              (fun op a m -> Gpu.Kir.Bin (op, a, Gpu.Kir.Int m))
              (oneofl Gpu.Kir.[ Div; Mod ])
              (addr bound (depth - 1))
              (int_range 1 4) );
          ( 1,
            map3
              (fun c a b -> Gpu.Kir.Select (c, a, b))
              (addr bound (depth - 1))
              (addr bound (depth - 1))
              (addr bound (depth - 1)) );
        ]
  in
  let value bound =
    let any = List.map fst bound |> List.sort_uniq compare in
    frequency
      ([ (2, map (fun a -> Gpu.Kir.Read ("in", in_bounds a)) (addr bound 2));
         (1, addr bound 2) ]
      @
      match any with
      | [] -> []
      | names ->
          [ ( 2,
              map2
                (fun n a -> Gpu.Kir.Bin (Gpu.Kir.Add, Gpu.Kir.Var n, a))
                (oneofl names) (addr bound 1) ) ])
  in
  let rec stmts bound depth n =
    if n = 0 then return []
    else
      stmt bound depth >>= fun (bound', s) ->
      stmts bound' depth (n - 1) >|= fun rest -> s :: rest
  and stmt bound depth =
    let store =
      map2
        (fun i v -> (bound, Gpu.Kir.Store ("out", in_bounds i, v)))
        (addr bound 2) (value bound)
    in
    let lets =
      oneofl var_pool >>= fun name ->
      bool >>= fun loaded ->
      (if loaded then value bound else addr bound 2) >|= fun e ->
      let loaded = match e with Gpu.Kir.Read _ -> true | _ -> loaded in
      ((name, loaded) :: bound, Gpu.Kir.Let (name, e))
    in
    let nested =
      if depth = 0 then []
      else
        [
          ( 1,
            addr bound 2 >>= fun c ->
            int_range 0 2 >>= fun nt ->
            int_range 0 2 >>= fun ne ->
            stmts bound (depth - 1) nt >>= fun t ->
            stmts bound (depth - 1) ne >|= fun e ->
            (bound, Gpu.Kir.If (c, t, e)) );
          ( 1,
            oneofl var_pool >>= fun var ->
            int_range 1 3 >>= fun hi ->
            int_range 1 3 >>= fun nb ->
            stmts ((var, false) :: bound) (depth - 1) nb >|= fun body ->
            (bound, Gpu.Kir.For { var; lo = Gpu.Kir.Int 0; hi = Gpu.Kir.Int hi; body })
          );
        ]
    in
    frequency ([ (2, store); (2, lets) ] @ nested)
  in
  int_range 1 6 >>= fun n -> stmts [] 2 n

let scoped_kernel body =
  {
    Gpu.Kir.kname = "fuzz_scoped";
    params =
      [
        { Gpu.Kir.pname = "in"; kind = Gpu.Kir.In_buffer };
        { Gpu.Kir.pname = "out"; kind = Gpu.Kir.Out_buffer };
      ];
    grid_rank = 2;
    body;
  }

(* A consistent renaming of every let-bound and loop variable: a
   permutation of the pool, so shadowing is preserved exactly. *)
let rename_var = function "u" -> "w" | "v" -> "u" | "w" -> "v" | n -> n

let rec rename_expr = function
  | Gpu.Kir.Var n -> Gpu.Kir.Var (rename_var n)
  | Gpu.Kir.Read (b, i) -> Gpu.Kir.Read (b, rename_expr i)
  | Gpu.Kir.Bin (op, a, b) -> Gpu.Kir.Bin (op, rename_expr a, rename_expr b)
  | Gpu.Kir.Select (c, a, b) ->
      Gpu.Kir.Select (rename_expr c, rename_expr a, rename_expr b)
  | (Gpu.Kir.Int _ | Gpu.Kir.Gid _ | Gpu.Kir.Param _) as e -> e

let rec rename_stmt = function
  | Gpu.Kir.Let (n, e) -> Gpu.Kir.Let (rename_var n, rename_expr e)
  | Gpu.Kir.Store (b, i, v) -> Gpu.Kir.Store (b, rename_expr i, rename_expr v)
  | Gpu.Kir.If (c, t, e) ->
      Gpu.Kir.If (rename_expr c, List.map rename_stmt t, List.map rename_stmt e)
  | Gpu.Kir.For { var; lo; hi; body } ->
      Gpu.Kir.For
        {
          var = rename_var var;
          lo = rename_expr lo;
          hi = rename_expr hi;
          body = List.map rename_stmt body;
        }

let rename_cost (c : Gpu.Kir.cost) =
  {
    c with
    Gpu.Kir.summary =
      Option.map
        (fun s ->
          {
            s with
            Gpu.Kir.as_branches =
              List.map
                (fun b -> { b with Gpu.Kir.br_cond = rename_expr b.Gpu.Kir.br_cond })
                s.Gpu.Kir.as_branches;
          })
        c.Gpu.Kir.summary;
  }

let arb_scoped =
  QCheck.make
    ~print:(fun body -> Cuda.Emit.kernel ~grid:scoped_grid (scoped_kernel body))
    gen_scoped_body

let prop_static_cost_scoped =
  QCheck.Test.make ~name:"static_cost = profile_threads, scoped" ~count:300
    arb_scoped (fun body ->
      let k = scoped_kernel body in
      let buf id name =
        Gpu.Kir.Buffer_arg
          { Gpu.Buffer.id; name; data = Array.make scoped_len 0 }
      in
      let args = [ ("in", buf 0 "in"); ("out", buf 1 "out") ] in
      let d = Gpu.Kir.profile_threads k ~args ~grid:scoped_grid in
      match Gpu.Kir.static_cost k ~grid:scoped_grid with
      | Error m -> QCheck.Test.fail_reportf "static derivation failed: %s" m
      | Ok st ->
          { st with Gpu.Kir.summary = None } = d)

let prop_static_cost_renaming =
  QCheck.Test.make ~name:"static_cost invariant under variable renaming"
    ~count:300 arb_scoped (fun body ->
      let k = scoped_kernel body in
      let renamed = { k with Gpu.Kir.body = List.map rename_stmt body } in
      Result.map rename_cost (Gpu.Kir.static_cost k ~grid:scoped_grid)
      = Gpu.Kir.static_cost renamed ~grid:scoped_grid)

let () =
  Alcotest.run "fuzz"
    [
      ( "pipeline",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_optimizer_preserves;
            prop_backend_matches_interp;
            prop_split_invariant;
            prop_print_parse_roundtrip;
            prop_emitted_cuda_wellformed;
          ] );
      ( "static-cost",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_static_cost_matches_profile;
            prop_static_cost_scoped;
            prop_static_cost_renaming;
          ] );
    ]
