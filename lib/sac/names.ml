(* One counter per domain, replaced for the extent of each compile: a
   compile that a pool domain runs while helping in the middle of
   another one installs its own counter and puts the other back when it
   returns. *)
let supply = Domain.DLS.new_key (fun () -> ref 0)

let base name =
  match String.index_opt name '$' with
  | Some i -> String.sub name 0 i
  | None -> name

let fresh base_name =
  let counter = Domain.DLS.get supply in
  incr counter;
  Printf.sprintf "%s$%d" (base base_name) !counter

let suffix name =
  match String.index_opt name '$' with
  | Some i ->
      let digits = String.sub name (i + 1) (String.length name - i - 1) in
      Option.value ~default:0 (int_of_string_opt digits)
  | None -> 0

let with_supply names f =
  let start = List.fold_left (fun m n -> max m (suffix n)) 0 names in
  let saved = Domain.DLS.get supply in
  Domain.DLS.set supply (ref start);
  Fun.protect ~finally:(fun () -> Domain.DLS.set supply saved) f
