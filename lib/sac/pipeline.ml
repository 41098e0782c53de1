type report = {
  wlf_rounds : int;
  withloops_before : int;
  withloops_after : int;
}

let optimize prog ~entry =
  let prog = Check.program_exn prog in
  Names.with_supply
    (List.concat_map
       (fun (fd : Ast.fundef) ->
         List.map snd fd.Ast.params @ Rename.bound_names fd.Ast.body)
       prog)
  @@ fun () ->
  let fd = Inline.program prog ~entry in
  let fd = Dce.fundef (Simplify.fundef fd) in
  let before = Wlf.count_withloop_assigns fd in
  let rec fold_rounds fd rounds =
    if rounds > 50 then (fd, rounds)
    else
      let fd', changed = Wlf.run fd in
      if changed then
        fold_rounds (Dce.fundef (Simplify.fundef fd')) (rounds + 1)
      else (fd', rounds)
  in
  let fd, wlf_rounds = fold_rounds fd 0 in
  let after = Wlf.count_withloop_assigns fd in
  (fd, { wlf_rounds; withloops_before = before; withloops_after = after })

let optimize_source src ~entry = optimize (Parser.program src) ~entry
