(* Grid-level rewrites: pure syntax tree surgery on Kir bodies.  Both
   rules permute or regroup the iteration space without changing any
   store address or stored value, so the set of store events is
   preserved exactly; the analysis gates re-prove disjointness and
   coverage on every candidate anyway. *)

open Gpu

(* Map every [Gid d] through [gid] and suffix every let-/loop-bound
   name (and its uses) with [sfx]; parameters and buffer names are
   global to the kernel and stay as they are. *)
let map_body ~gid ~sfx body =
  Kir.map_stmts
    ~bind:(fun v -> v ^ sfx)
    (function
      | Kir.Gid d -> Some (gid d)
      | Kir.Var v -> Some (Kir.Var (v ^ sfx))
      | _ -> None)
    body

let ic_suffix = "_ic"

let interchange ((k : Kir.t), grid) =
  if Array.length grid <> 2 || k.Kir.grid_rank <> 2 then None
  else
    let gid = function
      | 0 -> Kir.Gid 1
      | 1 -> Kir.Gid 0
      | d -> Kir.Gid d
    in
    (* Involution, name included: interchanging twice must restore the
       original kernel so the search's visited set closes the cycle. *)
    let kname =
      let n = String.length k.Kir.kname and s = String.length ic_suffix in
      if n > s && String.sub k.Kir.kname (n - s) s = ic_suffix then
        String.sub k.Kir.kname 0 (n - s)
      else k.Kir.kname ^ ic_suffix
    in
    Some
      ( { k with Kir.kname; body = map_body ~gid ~sfx:"" k.Kir.body },
        [| grid.(1); grid.(0) |] )

let tile ~factor ((k : Kir.t), grid) =
  let rank = Array.length grid in
  if factor < 2 || rank = 0 || rank <> k.Kir.grid_rank then None
  else
    let d = rank - 1 in
    if grid.(d) mod factor <> 0 || grid.(d) <= factor then None
    else
      let replica i =
        let gid dim =
          if dim = d then
            Kir.Bin (Kir.Add, Kir.Bin (Kir.Mul, Kir.Gid d, Kir.Int factor),
                     Kir.Int i)
          else Kir.Gid dim
        in
        map_body ~gid ~sfx:(Printf.sprintf "_t%d" i) k.Kir.body
      in
      Some
        ( {
            k with
            Kir.kname = Printf.sprintf "%s_x%d" k.Kir.kname factor;
            body = List.concat (List.init factor replica);
          },
          Array.mapi (fun i n -> if i = d then n / factor else n) grid )
