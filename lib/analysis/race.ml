(* Race and coverage checking for kernel launches.

   A group is the set of generator-kernels that together define one
   array (one SAC [Device_withloop], or a single MDE kernel per output
   port).  The check proves that no two store events of the group —
   whether two work-items of one launch or work-items of different
   kernels — write the same address of the output buffer, and, when
   the group claims [full_cover], that the union of addresses is
   exactly [0, len).

   The symbolic route uses {!Affine} strided sets; when extraction
   fails the checker falls back to concrete interpretation of every
   thread with zero-filled buffers, which is exact whenever
   {!Gpu.Kir.cost_data_independent} holds (the address trace then
   cannot depend on buffer contents). *)

open Gpu

let thread_cap = 1 lsl 22

let product a = Array.fold_left ( * ) 1 a

(* ---- concrete evaluation ----------------------------------------- *)

exception Dynamic_error of string

let rec eval_expr scalars env gid (e : Kir.expr) : int =
  match e with
  | Kir.Int n -> n
  | Kir.Gid d -> gid.(d)
  | Kir.Param p -> ( match List.assoc_opt p scalars with Some v -> v | None -> 0)
  | Kir.Var v -> (
      match List.assoc_opt v env with
      | Some x -> x
      | None -> raise (Dynamic_error ("unbound variable " ^ v)))
  | Kir.Read (_, idx) ->
      let _ = eval_expr scalars env gid idx in
      0
  | Kir.Bin (op, a, b) ->
      let x = eval_expr scalars env gid a and y = eval_expr scalars env gid b in
      Kir.apply_binop op x y
  | Kir.Select (c, a, b) ->
      if eval_expr scalars env gid c <> 0 then eval_expr scalars env gid a
      else eval_expr scalars env gid b

let rec run_stmt scalars env gid ~on_store (s : Kir.stmt) =
  match s with
  | Kir.Let (name, e) -> (name, eval_expr scalars env gid e) :: env
  | Kir.Store (buf, idx, v) ->
      let a = eval_expr scalars env gid idx in
      let _ = eval_expr scalars env gid v in
      on_store buf a;
      env
  | Kir.If (c, t, f) ->
      let branch = if eval_expr scalars env gid c <> 0 then t else f in
      let _ = List.fold_left (fun env s -> run_stmt scalars env gid ~on_store s) env branch in
      env
  | Kir.For { var; lo; hi; body } ->
      let l = eval_expr scalars env gid lo and h = eval_expr scalars env gid hi in
      for i = l to h - 1 do
        let _ =
          List.fold_left
            (fun env s -> run_stmt scalars env gid ~on_store s)
            ((var, i) :: env) body
        in
        ()
      done;
      env

(* Run every thread of [k] over [grid], calling [on_store ~tid buf addr]
   for each store event (tid = row-major thread id), with buffer reads
   yielding zero. *)
let run_threads ?(scalars = []) ~grid ~on_store (k : Kir.t) =
  let rank = Array.length grid in
  let gid = Array.make rank 0 in
  let tid = ref 0 in
  let rec loop d =
    if d = rank then begin
      let here = !tid in
      incr tid;
      let _ =
        List.fold_left
          (fun env s -> run_stmt scalars env gid ~on_store:(on_store ~tid:here) s)
          [] k.Kir.body
      in
      ()
    end
    else
      for i = 0 to grid.(d) - 1 do
        gid.(d) <- i;
        loop (d + 1)
      done
  in
  loop 0

(* ---- the group check --------------------------------------------- *)

type kinfo = { idx : int; name : string; grid : int array; kernel : Kir.t }

let kname_of i = i.name

let check_group ?(file = "kir") ~out ~len ~full_cover kernels : Finding.t list =
  let infos =
    List.mapi
      (fun idx (k, grid) -> { idx; name = k.Kir.kname; grid; kernel = k })
      kernels
  in
  let findings = ref [] in
  let report f = findings := f :: !findings in
  let symbolic =
    (* (kernel info, store sets for [out]) per kernel, or None *)
    let rec collect acc = function
      | [] -> Some (List.rev acc)
      | i :: rest -> (
          match Affine.store_sets ~grid:i.grid i.kernel with
          | None -> None
          | Some sets ->
              let mine = List.filter_map (fun (b, s) -> if b = out then Some s else None) sets in
              collect ((i, mine) :: acc) rest)
    in
    collect [] infos
  in
  let symbolic_clean = ref true in
  (match symbolic with
  | Some per_kernel ->
      let tagged =
        List.concat_map (fun (i, sets) -> List.map (fun s -> (i, s)) sets) per_kernel
      in
      (* every set injective over its work-items *)
      List.iter
        (fun ((i : kinfo), (s : Affine.sset)) ->
          match Affine.self_injective s with
          | Affine.Proved -> ()
          | Affine.Refuted why ->
              symbolic_clean := false;
              report
                (Finding.v Finding.Race Finding.Error ~file ~where:(kname_of i)
                   "two work-items write the same %s address: %s" out why)
          | Affine.Unknown ->
              symbolic_clean := false;
              report
                (Finding.v Finding.Unproven_disjoint Finding.Warning ~file
                   ~where:(kname_of i)
                   "cannot prove work-items of this launch write distinct %s \
                    addresses (%a)"
                   out Affine.pp_sset s))
        tagged;
      (* pairwise disjointness across all store sets of the group *)
      let arr = Array.of_list tagged in
      for a = 0 to Array.length arr - 1 do
        for b = a + 1 to Array.length arr - 1 do
          let ia, sa = arr.(a) and ib, sb = arr.(b) in
          (* two stores of the same kernel with identical shape hit the
             same address only from the same work-item: benign rewrite *)
          let same_thread_rewrite =
            ia.idx = ib.idx && sa.Affine.base = sb.Affine.base
            && sa.Affine.strides = sb.Affine.strides
          in
          if not same_thread_rewrite then
            match Affine.disjoint sa sb with
            | Affine.Proved -> ()
            | Affine.Refuted why ->
                symbolic_clean := false;
                report
                  (Finding.v Finding.Race Finding.Error ~file ~where:(kname_of ia)
                     "overlapping writes to %s%s: %s" out
                     (if ia.idx = ib.idx then ""
                      else Printf.sprintf " with kernel %s" (kname_of ib))
                     why)
            | Affine.Unknown ->
                symbolic_clean := false;
                report
                  (Finding.v Finding.Unproven_disjoint Finding.Warning ~file
                     ~where:(kname_of ia)
                     "cannot prove writes to %s%s are disjoint" out
                     (if ia.idx = ib.idx then ""
                      else Printf.sprintf " from kernel %s" (kname_of ib)))
        done
      done;
      (* coverage: all sets exact, in-bounds, provably disjoint and
         injective, and the event count matches the buffer length *)
      if full_cover then
        if !symbolic_clean then begin
          let all_exact = List.for_all (fun (_, s) -> s.Affine.exact) tagged in
          let in_bounds =
            List.for_all (fun (_, s) -> s.Affine.lo >= 0 && s.Affine.hi < len) tagged
          in
          let total = List.fold_left (fun acc (_, s) -> acc + s.Affine.events) 0 tagged in
          if all_exact && in_bounds then begin
            if total <> len then
              report
                (Finding.v Finding.Bad_cover Finding.Error ~file
                   ~where:
                     (match infos with i :: _ -> kname_of i | [] -> out)
                   "generators claim full cover of %s but write %d of %d \
                    addresses"
                   out total len)
          end
          else
            report
              (Finding.v Finding.Unproven_cover Finding.Warning ~file
                 ~where:(match infos with i :: _ -> kname_of i | [] -> out)
                 "cannot prove the generators cover %s exactly" out)
        end
        else
          report
            (Finding.v Finding.Unproven_cover Finding.Warning ~file
               ~where:(match infos with i :: _ -> kname_of i | [] -> out)
               "full-cover claim for %s not checked: disjointness unproven" out)
  | None ->
      (* concrete fallback: interpret every thread, tracking the last
         writer of each address *)
      let threads = List.fold_left (fun acc i -> acc + product i.grid) 0 infos in
      let data_indep =
        List.for_all (fun i -> Kir.cost_data_independent i.kernel) infos
      in
      if threads > thread_cap || len > thread_cap then
        report
          (Finding.v Finding.Analysis_skipped Finding.Note ~file ~where:out
             "race/coverage analysis of %s skipped (%d threads exceed the \
              %d-thread budget)"
             out threads thread_cap)
      else if not data_indep then
        report
          (Finding.v Finding.Unproven_disjoint Finding.Warning ~file ~where:out
             "store addresses of %s depend on buffer contents; disjointness \
              not checked"
             out)
      else begin
        let writers = Array.make (max len 1) (-1) in
        let written = ref 0 in
        let race = ref None in
        (try
           List.iter
             (fun i ->
               let base = i.idx * (thread_cap + 1) in
               run_threads ~grid:i.grid i.kernel ~on_store:(fun ~tid buf addr ->
                   if buf = out && addr >= 0 && addr < len then begin
                     let id = base + tid in
                     let prev = writers.(addr) in
                     if prev < 0 then incr written
                     else if prev <> id && !race = None then race := Some (addr, i);
                     writers.(addr) <- id
                   end))
             infos
         with Dynamic_error m | Kir.Kernel_error m ->
           report
             (Finding.v Finding.Unproven_disjoint Finding.Warning ~file
                ~where:out "concrete race check of %s aborted: %s" out m));
        (match !race with
        | Some (addr, i) ->
            report
              (Finding.v Finding.Race Finding.Error ~file ~where:(kname_of i)
                 "two store events write %s[%d]" out addr)
        | None -> ());
        if full_cover && !race = None && !written <> len then
          report
            (Finding.v Finding.Bad_cover Finding.Error ~file
               ~where:(match infos with i :: _ -> kname_of i | [] -> out)
               "generators claim full cover of %s but write %d of %d addresses"
               out !written len)
      end);
  List.rev !findings
