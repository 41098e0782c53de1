(* Search golden: what a cold [--opt auto] compile decides.  For the
   downscaler on the SAC route (non-generic) and the Gaspard2 route, at
   the two shapes the perfbench tune workload compiles, the tuned-plan
   cache is cleared and [tune] runs once; the case pins the winning rule
   path, how many candidates the search
   generated, applied and rejected, and the tuned program's modelled
   time printed exactly with %h.  The cost golden pins plans one move
   away; this pins the whole search, so a refactor of the move
   repertoire or the tune driver must reproduce it decision for
   decision. *)

let counters =
  [ "optimizer.candidates"; "optimizer.rules_applied"; "optimizer.verify_rejections" ]

let counts () =
  List.map (fun c -> Option.value ~default:0 (Obs.Metrics.find c)) counters

(* One line per case: rule path, counter deltas, modelled µs. *)
let searched tune =
  Optimizer.Cache.clear ();
  let before = counts () in
  let rules, us = tune () in
  let deltas = List.map2 ( - ) (counts ()) before in
  Printf.sprintf "[%s] candidates=%d applied=%d rejected=%d us=%h"
    (String.concat "; " rules)
    (List.nth deltas 0) (List.nth deltas 1) (List.nth deltas 2) us

let sac ~rows ~cols () =
  let plan, _ =
    Sac_cuda.Compile.plan_of_source ~opt:Optimizer.Mode.Off
      (Sac.Programs.downscaler ~generic:false ~rows ~cols)
      ~entry:"main"
  in
  let tuned, _, rules = Sac_cuda.Autotune.tune plan in
  (rules, Sac_cuda.Autotune.modelled_us tuned)

let gaspard ~rows ~cols () =
  let gen =
    Mde.Chain.transform_exn ~opt:Optimizer.Mode.Off
      (Mde.Chain.downscaler_model ~rows ~cols)
  in
  let tuned, _, rules = Mde.Autotune.tune gen in
  (rules, Mde.Autotune.modelled_us tuned)

let expected =
  [
    ( "sac 72x64",
      "[fuse!; interchange:output$51] candidates=62 applied=31 rejected=14 \
       us=0x1.ef06e48941e64p+6" );
    ( "gaspard 72x64",
      "[fuse!; interchange:bvf; interchange:gvf; interchange:rvf] \
       candidates=173 applied=117 rejected=43 us=0x1.c149991a51687p+6" );
    ( "sac 288x352",
      "[fuse!] candidates=62 applied=34 rejected=11 us=0x1.4947b98eb2418p+8" );
    ( "gaspard 288x352",
      "[fuse!] candidates=173 applied=104 rejected=42 us=0x1.230aae29ee22bp+9" );
  ]

let case name tune =
  Alcotest.test_case name `Quick (fun () ->
      let actual = searched tune in
      match List.assoc_opt name expected with
      | Some e -> Alcotest.(check string) name e actual
      | None -> Alcotest.failf "no golden for %s; now %S" name actual)

let () =
  Alcotest.run "search golden"
    [
      ( "tuned paths",
        [
          case "sac 72x64" (sac ~rows:72 ~cols:64);
          case "gaspard 72x64" (gaspard ~rows:72 ~cols:64);
          case "sac 288x352" (sac ~rows:288 ~cols:352);
          case "gaspard 288x352" (gaspard ~rows:288 ~cols:352);
        ] );
    ]
