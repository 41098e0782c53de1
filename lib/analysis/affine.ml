(* Affine/strided shapes of kernel store addresses.

   Both back ends emit store indices that are (nearly) affine in the
   grid ids: the SAC kernelizer produces [lb + step*gid] and
   [lb + step*(gid/width) + gid mod width] index bindings, and the MDE
   code generator produces Horner-linearised tiler addresses with a
   [mod extent] per dimension.  This module recovers that structure:

   - [Gid d] occurrences of a dimension that is elsewhere divided or
     reduced by a width [w] are rewritten as [w*Q(d,w) + R(d,w)],
     where [Q] and [R] range over the quotient/remainder blocks;
   - [mod m] is dropped whenever the operand's interval already lies
     inside [0, m), which discharges the MDE tiler wrap;
   - the result is a strided set: base + sum of coeff_i * [0, count_i),
     one stride per (split) grid dimension, including zero-coefficient
     strides, which record write multiplicity.

   Sets carry an [exact] flag: inexact sets (truncated blocks,
   conditional stores) remain sound for *proving* disjointness or
   injectivity but are never used to claim a definite race. *)

open Gpu

type var = G of int | Q of int * int | R of int * int

type form = { const : int; terms : (var * int) list }

type sset = {
  base : int;
  strides : (int * int) list;  (** (coeff, count), one per grid variable *)
  events : int;  (** number of store events = product of counts *)
  exact : bool;
  lo : int;
  hi : int;  (** value range of the set *)
}

(* ---- forms ------------------------------------------------------- *)

let const_form n = { const = n; terms = [] }

let var_form v = { const = 0; terms = [ (v, 1) ] }

let add_forms a b =
  let terms =
    List.fold_left
      (fun acc (v, c) ->
        match List.assoc_opt v acc with
        | None -> (v, c) :: acc
        | Some c0 ->
            let acc = List.remove_assoc v acc in
            if c0 + c = 0 then acc else (v, c0 + c) :: acc)
      a.terms b.terms
  in
  { const = a.const + b.const; terms }

let scale_form n f =
  if n = 0 then const_form 0
  else { const = n * f.const; terms = List.map (fun (v, c) -> (v, n * c)) f.terms }

let sub_forms a b = add_forms a (scale_form (-1) b)

(* ---- variable ranges --------------------------------------------- *)

let cdiv a b = (a + b - 1) / b

let var_count grid = function
  | G d -> grid.(d)
  | Q (d, w) -> cdiv grid.(d) w
  | R (d, w) -> min w grid.(d)

let form_interval grid f =
  List.fold_left
    (fun acc (v, c) ->
      let n = var_count grid v in
      Interval.add acc (Interval.mul (Interval.of_int c) (Interval.range_excl 0 n)))
    (Interval.of_int f.const) f.terms

(* ---- extraction -------------------------------------------------- *)

exception Not_affine

(* Pass 1: find the width by which each grid dimension is split.  Only
   [gid/w] and [gid mod w] with a literal width of at least 2 register
   a split; conflicting widths abort extraction. *)
let collect_splits (k : Kir.t) =
  let splits = Hashtbl.create 4 in
  Kir.fold_stmts
    (fun () -> function
      | Kir.Bin ((Kir.Div | Kir.Mod), Kir.Gid d, Kir.Int w) when w >= 2 -> (
          match Hashtbl.find_opt splits d with
          | None -> Hashtbl.add splits d w
          | Some w0 -> if w0 <> w then raise Not_affine)
      | _ -> ())
    () k.Kir.body;
  splits

(* Pass 2: linear form of an expression under the split map.  [exact]
   is cleared when a split dimension's width does not divide the grid
   extent (the last quotient block is truncated, so treating Q and R
   as independent over-approximates the address set). *)
let rec form_of ~grid ~splits ~env ~exact (e : Kir.expr) : form =
  match e with
  | Kir.Int n -> const_form n
  | Kir.Gid d -> (
      match Hashtbl.find_opt splits d with
      | None -> var_form (G d)
      | Some w ->
          if grid.(d) mod w <> 0 then exact := false;
          add_forms (scale_form w (var_form (Q (d, w)))) (var_form (R (d, w))))
  | Kir.Param _ | Kir.Read _ -> raise Not_affine
  | Kir.Var v -> (
      match List.assoc_opt v env with
      | Some (f, ex) ->
          if not ex then exact := false;
          f
      | None -> raise Not_affine)
  | Kir.Bin (Kir.Add, a, b) ->
      add_forms (form_of ~grid ~splits ~env ~exact a) (form_of ~grid ~splits ~env ~exact b)
  | Kir.Bin (Kir.Sub, a, b) ->
      sub_forms (form_of ~grid ~splits ~env ~exact a) (form_of ~grid ~splits ~env ~exact b)
  | Kir.Bin (Kir.Mul, Kir.Int n, b) -> scale_form n (form_of ~grid ~splits ~env ~exact b)
  | Kir.Bin (Kir.Mul, a, Kir.Int n) -> scale_form n (form_of ~grid ~splits ~env ~exact a)
  | Kir.Bin (Kir.Div, Kir.Gid d, Kir.Int w) when w >= 1 ->
      if w = 1 then form_of ~grid ~splits ~env ~exact (Kir.Gid d)
      else (
        (* collect_splits registered this width *)
        if grid.(d) mod w <> 0 then exact := false;
        var_form (Q (d, w)))
  | Kir.Bin (Kir.Mod, Kir.Gid d, Kir.Int w) when w >= 1 ->
      if w = 1 then const_form 0
      else (
        if grid.(d) mod w <> 0 then exact := false;
        var_form (R (d, w)))
  | Kir.Bin (Kir.Mod, a, Kir.Int m) when m >= 1 ->
      let fa = form_of ~grid ~splits ~env ~exact a in
      let itv = form_interval grid fa in
      if Interval.subset itv (Interval.range_excl 0 m) then fa else raise Not_affine
  | Kir.Bin _ | Kir.Select _ -> raise Not_affine

(* ---- strided sets ------------------------------------------------ *)

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a > max_int / b then max_int
  else a * b

(* The variable universe of a launch: every grid dimension contributes
   either its [G] variable or its [Q]/[R] pair, whether or not the
   store index mentions it — an unmentioned dimension of extent > 1 is
   a zero stride, i.e. repeated writes to the same address. *)
let universe grid splits =
  List.concat
    (List.init (Array.length grid) (fun d ->
         match Hashtbl.find_opt splits d with
         | None -> [ G d ]
         | Some w -> [ Q (d, w); R (d, w) ]))

let sset_of_form ~grid ~splits ~exact f =
  let vars = universe grid splits in
  (* a form variable outside the universe (can't happen today) would
     lose multiplicity tracking; reject it *)
  List.iter
    (fun (v, _) -> if not (List.mem v vars) then raise Not_affine)
    f.terms;
  let strides =
    List.filter_map
      (fun v ->
        let count = var_count grid v in
        let coeff = match List.assoc_opt v f.terms with Some c -> c | None -> 0 in
        if count <= 1 then None else Some (coeff, count))
      vars
  in
  let events = List.fold_left (fun acc (_, n) -> sat_mul acc n) 1 strides in
  let itv = form_interval grid f in
  {
    base = f.const;
    strides;
    events;
    exact;
    lo = itv.Interval.lo;
    hi = itv.Interval.hi;
  }

(* Store sets of a kernel: one per Store statement, tagged with the
   buffer name.  Stores inside conditionals are kept but inexact;
   stores inside For loops (none are emitted today) abort.  Returns
   None when any store address is not recognisably affine. *)
let rec has_store = function
  | Kir.Store _ -> true
  | Kir.If (_, t, f) -> List.exists has_store t || List.exists has_store f
  | Kir.For { body; _ } -> List.exists has_store body
  | Kir.Let _ -> false

let store_sets ~grid (k : Kir.t) : (string * sset) list option =
  match
    let splits = collect_splits k in
    let rec stmts env ~guarded acc = function
      | [] -> acc
      | Kir.Let (name, e) :: rest ->
          let binding =
            try
              let exact = ref true in
              let f = form_of ~grid ~splits ~env ~exact e in
              Some (f, !exact)
            with Not_affine -> None
          in
          let env =
            match binding with Some b -> (name, b) :: env | None -> env
          in
          stmts env ~guarded acc rest
      | Kir.Store (buf, idx, _) :: rest ->
          let exact = ref true in
          let f = form_of ~grid ~splits ~env ~exact idx in
          let s = sset_of_form ~grid ~splits ~exact:(!exact && not guarded) f in
          stmts env ~guarded ((buf, s) :: acc) rest
      | Kir.If (_, t, f) :: rest ->
          (* Branch-uniform stores: an if/else chain whose arms all
             store the same (buffer, address) list executes exactly one
             arm, so those stores happen unconditionally and stay
             exact.  Fused kernels dispatch over producer branches this
             way; recursion makes the check cascade down nested else
             chains.  Anything else keeps the conservative inexact
             treatment. *)
          let branch_sets body =
            match List.rev (stmts env ~guarded [] body) with
            | sets -> Some sets
            | exception Not_affine -> None
          in
          let acc =
            match (branch_sets t, branch_sets f) with
            | Some ts, Some fs when ts <> [] && ts = fs ->
                List.rev_append ts acc
            | _ ->
                let acc = stmts env ~guarded:true acc t in
                stmts env ~guarded:true acc f
          in
          stmts env ~guarded acc rest
      | (Kir.For { body; _ } as s) :: rest ->
          (* a store inside a loop is outside the per-thread strided
             model; loop-local lets cannot escape, so skip otherwise *)
          if has_store s then raise Not_affine
          else (
            ignore body;
            stmts env ~guarded acc rest)
    in
    Some (List.rev (stmts [] ~guarded:false [] k.Kir.body))
  with
  | exception Not_affine -> None
  | r -> r

(* ---- decision procedures ----------------------------------------- *)

type verdict = Proved | Refuted of string | Unknown

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let pos_mod a m =
  let r = a mod m in
  if r < 0 then r + m else r

let residue_cap = 4096

(* Residues of a strided set modulo M as a boolean table, or None when
   M is too large.  A single stride (c, n) covers multiples of
   gcd(c,M) once n reaches the cycle length. *)
let residues_mod s m =
  if m < 2 || m > residue_cap then None
  else begin
    let cur = Bytes.make m '\000' in
    Bytes.set cur (pos_mod s.base m) '\001';
    let shift_by table offsets =
      let out = Bytes.make m '\000' in
      List.iter
        (fun off ->
          for r = 0 to m - 1 do
            if Bytes.get table r = '\001' then Bytes.set out (pos_mod (r + off) m) '\001'
          done)
        offsets;
      out
    in
    let table =
      List.fold_left
        (fun table (c, n) ->
          let cm = pos_mod c m in
          if cm = 0 then table (* multiples of m shift nothing mod m *)
          else
            let cycle = m / gcd cm m in
            let steps = min n cycle in
            let offsets = List.init steps (fun k -> pos_mod (k * c) m) in
            shift_by table offsets)
        cur s.strides
    in
    Some table
  end

let residue_tables_disjoint t1 t2 m =
  let rec go r =
    if r >= m then true
    else if Bytes.get t1 r = '\001' && Bytes.get t2 r = '\001' then false
    else go (r + 1)
  in
  go 0

let enum_cap = 1 lsl 22

let iter_values s f =
  let rec go base = function
    | [] -> f base
    | (c, n) :: rest ->
        for k = 0 to n - 1 do
          go (base + (k * c)) rest
        done
  in
  go s.base s.strides

let self_injective s : verdict =
  if List.exists (fun (c, n) -> c = 0 && n > 1) s.strides then
    if s.exact then
      Refuted "a grid dimension does not appear in the store index"
    else Unknown
  else
    let sorted = List.sort (fun (a, _) (b, _) -> compare (abs a) (abs b)) s.strides in
    let rec dominates reach = function
      | [] -> Proved
      | (c, n) :: rest ->
          if abs c <= reach then Unknown
          else dominates (reach + (abs c * (n - 1))) rest
    in
    match dominates 0 sorted with
    | Proved -> Proved
    | _ when s.events <= enum_cap ->
        let seen = Hashtbl.create (2 * s.events) in
        let dup = ref false in
        iter_values s (fun v ->
            if Hashtbl.mem seen v then dup := true else Hashtbl.add seen v ());
        if not !dup then Proved
        else if s.exact then Refuted "two work-items compute the same address"
        else Unknown
    | v -> v

let disjoint s1 s2 : verdict =
  if s1.hi < s2.lo || s2.hi < s1.lo then Proved
  else
    let coeffs =
      List.filter (fun c -> c <> 0)
        (List.map fst s1.strides @ List.map fst s2.strides)
    in
    let g = List.fold_left gcd 0 coeffs in
    if g > 1 && pos_mod (s1.base - s2.base) g <> 0 then Proved
    else
      let candidates =
        List.sort_uniq compare (List.filter (fun m -> m > 1) (List.map abs coeffs))
      in
      let rec try_moduli = function
        | [] -> None
        | m :: rest -> (
            match (residues_mod s1 m, residues_mod s2 m) with
            | Some t1, Some t2 when residue_tables_disjoint t1 t2 m -> Some Proved
            | _ -> try_moduli rest)
      in
      match try_moduli candidates with
      | Some v -> v
      | None ->
          if s1.events + s2.events <= enum_cap then begin
            let seen = Hashtbl.create (2 * s1.events) in
            iter_values s1 (fun v -> Hashtbl.replace seen v ());
            let clash = ref None in
            iter_values s2 (fun v ->
                if !clash = None && Hashtbl.mem seen v then clash := Some v);
            match !clash with
            | None -> Proved
            | Some v ->
                if s1.exact && s2.exact then
                  Refuted (Printf.sprintf "both write address %d" v)
                else Unknown
          end
          else Unknown

let pp_sset ppf s =
  Format.fprintf ppf "%d" s.base;
  List.iter
    (fun (c, n) -> Format.fprintf ppf " + %d*[0..%d)" c n)
    s.strides;
  Format.fprintf ppf " (%d events%s)" s.events (if s.exact then "" else ", inexact")
