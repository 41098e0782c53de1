(* regress -- noise-aware diff of two bench --json artefacts.

   `regress BASELINE.json CURRENT.json` compares every metric the
   baseline carries against the current report and exits non-zero when
   one regresses beyond its noise class.  The classes encode what each
   metric *is*:

   - structural counts (fused kernel/launch/buffer counts, peak bytes,
     run configuration) are exact -- any drift is a real plan change;
   - modelled times are deterministic up to float formatting, so they
     get a tight relative band;
   - wall-clock times (section seconds, serving percentiles) vary with
     the machine, so they get a wide one-sided factor -- the gate only
     fires on order-of-magnitude blowups;
   - volume counters (launches, pool tasks, served requests) are
     load-dependent, checked for sign only: active subsystems must stay
     active;
   - acceptance booleans (bit_identical, p99_bounded) must never go
     from true to false;
   - tuned rule paths are exact: generated names are numbered per
     compile, so any change of a path is a different decision;
   - environment and load-shape fields (date, domains, reject/drop
     counts, burn rates) are ignored.

   Metrics present only in the current report are fine (new PRs add
   blocks); metrics the baseline has but the current report lost are
   failures -- a vanished series is how observability regresses
   silently.

   `regress --perturb OUT.json BASELINE.json` writes a copy of the
   baseline with injected regressions (tripled modelled times, extra
   kernels, one flipped acceptance bool, one lengthened rule path); the runtest alias uses it to
   prove the gate actually fails. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let parse what path =
  match Obs.Json.parse (read_file path) with
  | Ok j -> j
  | Error m -> fail "%s %s: invalid JSON: %s" what path m

(* ------------------------------------------------------------------ *)
(* Flattening: JSON document -> (path, leaf) pairs                     *)
(* ------------------------------------------------------------------ *)

let str_member key j =
  match Obs.Json.member key j with Some (Obs.Json.Str s) -> Some s | _ -> None

let num_member key j =
  match Obs.Json.member key j with
  | Some (Obs.Json.Num n) -> Some n
  | _ -> None

let bool_member key j =
  match Obs.Json.member key j with
  | Some (Obs.Json.Bool b) -> Some b
  | _ -> None

(* Arrays of objects are matched by identity, not position, so rows may
   be reordered (or appended) without tripping the gate. *)
let identity ~array item =
  let d = Option.value ~default:"?" in
  match array with
  | "sections" | "slo" -> Some (d (str_member "name" item))
  | "serving" -> (
      (* Top-level serving rows are keyed by pipeline/policy; the
         devices.serving sweep rows by their device count. *)
      match num_member "devices" item with
      | Some n -> Some (Printf.sprintf "dev%d" (int_of_float n))
      | None ->
          Some
            (Printf.sprintf "%s/%s"
               (d (str_member "pipeline" item))
               (d (str_member "policy" item))))
  | "sharding" ->
      Some
        (Printf.sprintf "%dx%dx%d"
           (int_of_float (Option.value ~default:0. (num_member "devices" item)))
           (int_of_float (Option.value ~default:0. (num_member "rows" item)))
           (int_of_float (Option.value ~default:0. (num_member "cols" item))))
  | "autotune_ablation" ->
      Some
        (Printf.sprintf "%s:%dx%d"
           (d (str_member "pipeline" item))
           (int_of_float (Option.value ~default:0. (num_member "rows" item)))
           (int_of_float (Option.value ~default:0. (num_member "cols" item))))
  | "fusion_ablation" ->
      Some
        (Printf.sprintf "%s:fused=%b"
           (d (str_member "pipeline" item))
           (Option.value ~default:false (bool_member "fused" item)))
  | "perf_lint" -> Some (d (str_member "pipeline" item))
  | _ -> None

let rec flatten ~path ~array json acc =
  match json with
  | Obs.Json.Obj fields ->
      List.fold_left
        (fun acc (k, v) ->
          let p = if path = "" then k else path ^ "." ^ k in
          flatten ~path:p ~array:k v acc)
        acc fields
  | Obs.Json.Arr items
    when List.for_all (fun i -> identity ~array i <> None) items
         && items <> [] ->
      List.fold_left
        (fun acc item ->
          let key = Option.get (identity ~array item) in
          flatten
            ~path:(Printf.sprintf "%s[%s]" path key)
            ~array:"" item acc)
        acc items
  | leaf -> (path, leaf) :: acc

let flatten_doc json = List.rev (flatten ~path:"" ~array:"" json [])

(* ------------------------------------------------------------------ *)
(* Noise classes                                                       *)
(* ------------------------------------------------------------------ *)

type cls =
  | Exact
  | Rel of float * float  (** two-sided: relative tolerance, abs floor *)
  | Factor of float * float
      (** one-sided: current may not exceed base * factor + floor *)
  | SignOnly  (** base > 0 requires current > 0 *)
  | BoolNoRegress  (** true may not become false *)
  | Ignore

let classify path =
  let suf s = String.ends_with ~suffix:s path in
  let pre s = String.starts_with ~prefix:s path in
  if path = "date" || path = "domains" then Ignore
  else if suf ".rules" then Exact
  else if suf ".buckets" then Ignore
  else if path = "smoke" || path = "opt" || pre "scale." then Exact
  else if pre "sections[" then
    (* The floor absorbs machine contention on sub-second sections; the
       factor still catches order-of-magnitude blowups of real ones. *)
    if suf ".seconds" then Factor (4., 5.0) else Exact (* identity fields *)
  else if path = "total_seconds" then Factor (4., 2.0)
  else if pre "fusion_ablation[" then
    if suf ".modelled_us" then Rel (0.01, 0.2)
    else if suf ".bit_identical" then BoolNoRegress
    else Exact (* kernels, launches, intermediates, peak_bytes, labels *)
  else if pre "autotune_ablation[" then
    if suf ".off_us" || suf ".fuse_us" || suf ".auto_us" then Rel (0.01, 0.2)
    else if suf ".bit_checked" || suf ".bit_identical" then BoolNoRegress
    else Exact
  else if pre "perf_lint[" then
    if suf ".shipped_clean" then BoolNoRegress
    else if suf ".min_efficiency" then Rel (0.01, 0.005)
    else Exact (* kernels, buffers, finding counts: deterministic *)
  else if pre "serving[" then
    if suf ".p99_bounded" then BoolNoRegress
    else if
      suf ".p50_ms" || suf ".p95_ms" || suf ".p99_ms" || suf ".p999_ms"
    then Factor (25., 5.0)
    else Ignore (* rps and admission counts follow the machine's speed *)
  else if pre "slo[" then
    if suf ".budget" then Exact
    else if suf ".total" then SignOnly
    else Ignore (* breaches/burn follow load; objective follows speed *)
  else if pre "devices.sharding[" then
    if suf ".makespan_us" || suf ".serial_us" || suf ".speedup" then
      Rel (0.01, 0.2)
    else if suf ".bit_identical" then BoolNoRegress
    else if suf ".pcie_bytes" || suf ".peer_bytes" then SignOnly
    else Exact (* devices, rows, cols, frames *)
  else if pre "devices.serving[" then
    if suf ".devices" then Exact
    else Ignore (* rps and migrations follow the machine's speed *)
  else if pre "serve_phases." then if suf ".count" then SignOnly else Ignore
  else if pre "overlap." then Ignore
  else if
    path = "serve.rejected" || path = "serve.dropped"
    || path = "serve.timed_out" || path = "serve.migrations"
  then Ignore (* shed/migration counts follow the machine's load shape *)
  else if
    pre "cache_stats." || pre "gpu." || pre "pool." || pre "serve."
    || pre "optimizer." || pre "analysis." || pre "fusion."
  then SignOnly
  else Ignore

let pp_leaf = Obs.Json.render

let check path base cur =
  let mismatch what =
    Some
      (Printf.sprintf "%s: %s (baseline %s, current %s)" path what
         (pp_leaf base) (pp_leaf cur))
  in
  match (classify path, base, cur) with
  | Ignore, _, _ -> None
  | Exact, b, c -> if b = c then None else mismatch "exact value changed"
  | BoolNoRegress, Obs.Json.Bool true, Obs.Json.Bool true -> None
  | BoolNoRegress, Obs.Json.Bool true, _ -> mismatch "acceptance flag lost"
  | BoolNoRegress, _, _ -> None (* false baseline: nothing to protect *)
  | SignOnly, Obs.Json.Num b, Obs.Json.Num c ->
      if b > 0. && c <= 0. then mismatch "active series went silent"
      else None
  | SignOnly, _, _ -> None
  | Rel (tol, floor), Obs.Json.Num b, Obs.Json.Num c ->
      let hi = (b *. (1. +. tol)) +. floor
      and lo = (b *. (1. -. tol)) -. floor in
      if c > hi || c < lo then
        mismatch (Printf.sprintf "outside %.0f%% band" (100. *. tol))
      else None
  | Factor (f, floor), Obs.Json.Num b, Obs.Json.Num c ->
      if c > (b *. f) +. floor then
        mismatch (Printf.sprintf "exceeds %.0fx baseline" f)
      else None
  | (Rel _ | Factor _), _, _ -> mismatch "expected a number"

(* ------------------------------------------------------------------ *)
(* Perturbation (negative self-test)                                   *)
(* ------------------------------------------------------------------ *)

let perturb json =
  let flipped = ref false and lengthened = ref false in
  let rec go = function
    | Obs.Json.Obj fields ->
        Obs.Json.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "modelled_us", Obs.Json.Num f -> (k, Obs.Json.Num (f *. 3.))
               | "kernels", Obs.Json.Num f -> (k, Obs.Json.Num (f +. 5.))
               | "p99_bounded", Obs.Json.Bool true when not !flipped ->
                   flipped := true;
                   (k, Obs.Json.Bool false)
               | "rules", Obs.Json.Arr rules when not !lengthened ->
                   lengthened := true;
                   (k, Obs.Json.Arr (rules @ [ Obs.Json.Str "fission" ]))
               | _ -> (k, go v))
             fields)
    | Obs.Json.Arr items -> Obs.Json.Arr (List.map go items)
    | leaf -> leaf
  in
  go json

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  match Sys.argv with
  | [| _; "--perturb"; out; baseline |] ->
      let j = perturb (parse "baseline" baseline) in
      let oc = open_out out in
      output_string oc (Obs.Json.render j);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote perturbed baseline to %s\n" out
  | [| _; baseline_path; current_path |] ->
      let baseline = flatten_doc (parse "baseline" baseline_path) in
      let current = flatten_doc (parse "current" current_path) in
      let compared = ref 0 and ignored = ref 0 in
      let errors =
        List.filter_map
          (fun (path, base) ->
            match classify path with
            | Ignore ->
                incr ignored;
                None
            | _ -> (
                incr compared;
                match List.assoc_opt path current with
                | Some cur -> check path base cur
                | None ->
                    Some
                      (Printf.sprintf
                         "%s: present in baseline, missing from current \
                          report"
                         path)))
          baseline
      in
      if errors <> [] then begin
        Printf.eprintf "bench-regress: %d regression(s) vs %s:\n"
          (List.length errors) baseline_path;
        List.iter (fun e -> Printf.eprintf "  %s\n" e) errors;
        exit 1
      end;
      Printf.printf "bench-regress ok: %d metrics within noise (%d ignored)\n"
        !compared !ignored
  | _ ->
      fail
        "usage: regress BASELINE.json CURRENT.json\n\
        \       regress --perturb OUT.json BASELINE.json"
