type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Min
  | Max
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

type expr =
  | Int of int
  | Gid of int
  | Param of string
  | Var of string
  | Read of string * expr
  | Bin of binop * expr * expr
  | Select of expr * expr * expr

type stmt =
  | Let of string * expr
  | Store of string * expr * expr
  | If of expr * stmt list * stmt list
  | For of { var : string; lo : expr; hi : expr; body : stmt list }

type param_kind = Scalar | In_buffer | Out_buffer

type param = { pname : string; kind : param_kind }

type t = {
  kname : string;
  params : param list;
  grid_rank : int;
  body : stmt list;
}

type arg = Scalar_arg of int | Buffer_arg of Buffer.t

let bool_of_int i = i <> 0

let int_of_bool b = if b then 1 else 0

exception Kernel_error of string

let apply_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then raise (Kernel_error "division by zero") else a / b
  | Mod -> if b = 0 then raise (Kernel_error "modulo by zero") else a mod b
  | Min -> min a b
  | Max -> max a b
  | Lt -> int_of_bool (a < b)
  | Le -> int_of_bool (a <= b)
  | Gt -> int_of_bool (a > b)
  | Ge -> int_of_bool (a >= b)
  | Eq -> int_of_bool (a = b)
  | Ne -> int_of_bool (a <> b)
  | And -> int_of_bool (bool_of_int a && bool_of_int b)
  | Or -> int_of_bool (bool_of_int a || bool_of_int b)

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

let rec map_expr f e =
  match f e with
  | Some e' -> e'
  | None -> (
      match e with
      | Int _ | Gid _ | Param _ | Var _ -> e
      | Read (b, i) -> Read (b, map_expr f i)
      | Bin (op, a, b) -> Bin (op, map_expr f a, map_expr f b)
      | Select (c, a, b) -> Select (map_expr f c, map_expr f a, map_expr f b))

let rec map_stmts ~bind f stmts =
  List.map
    (function
      | Let (v, e) -> Let (bind v, map_expr f e)
      | Store (b, i, v) -> Store (b, map_expr f i, map_expr f v)
      | If (c, t, e) ->
          If (map_expr f c, map_stmts ~bind f t, map_stmts ~bind f e)
      | For { var; lo; hi; body } ->
          For
            {
              var = bind var;
              lo = map_expr f lo;
              hi = map_expr f hi;
              body = map_stmts ~bind f body;
            })
    stmts

let rec fold_expr f acc e =
  let acc =
    match e with
    | Int _ | Gid _ | Param _ | Var _ -> acc
    | Read (_, i) -> fold_expr f acc i
    | Bin (_, a, b) -> fold_expr f (fold_expr f acc a) b
    | Select (c, a, b) -> fold_expr f (fold_expr f (fold_expr f acc c) a) b
  in
  f acc e

let rec fold_stmts f acc stmts =
  List.fold_left
    (fun acc -> function
      | Let (_, e) -> fold_expr f acc e
      | Store (_, i, v) -> fold_expr f (fold_expr f acc i) v
      | If (c, t, e) -> fold_stmts f (fold_stmts f (fold_expr f acc c) t) e
      | For { lo; hi; body; _ } ->
          fold_stmts f (fold_expr f (fold_expr f acc lo) hi) body)
    acc stmts

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

module Sset = Set.Make (String)

let param_kind k params name =
  List.find_map
    (fun p -> if p.pname = name then Some p.kind else None)
    params
  |> function
  | Some kind -> Ok kind
  | None -> Error (Printf.sprintf "kernel %s: unknown parameter %s" k name)

let validate kernel =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  let* () =
    if kernel.kname = "" then err "kernel has an empty name" else Ok ()
  in
  let* () =
    let names = List.map (fun p -> p.pname) kernel.params in
    if List.length (List.sort_uniq String.compare names) <> List.length names
    then err "kernel %s: duplicate parameter names" kernel.kname
    else Ok ()
  in
  let rec check_expr bound = function
    | Int _ -> Ok ()
    | Gid d ->
        if d < 0 || d >= kernel.grid_rank then
          err "kernel %s: gid dimension %d out of grid rank %d" kernel.kname d
            kernel.grid_rank
        else Ok ()
    | Param name -> (
        match param_kind kernel.kname kernel.params name with
        | Error _ as e -> e
        | Ok Scalar -> Ok ()
        | Ok (In_buffer | Out_buffer) ->
            err "kernel %s: buffer %s used as a scalar" kernel.kname name)
    | Var name ->
        if Sset.mem name bound then Ok ()
        else err "kernel %s: unbound variable %s" kernel.kname name
    | Read (buf, idx) -> (
        match param_kind kernel.kname kernel.params buf with
        | Error _ as e -> e
        | Ok Scalar ->
            err "kernel %s: scalar %s used as a buffer" kernel.kname buf
        | Ok (In_buffer | Out_buffer) -> check_expr bound idx)
    | Bin (_, a, b) ->
        let* () = check_expr bound a in
        check_expr bound b
    | Select (c, a, b) ->
        let* () = check_expr bound c in
        let* () = check_expr bound a in
        check_expr bound b
  in
  let rec check_stmts bound = function
    | [] -> Ok bound
    | Let (name, e) :: rest ->
        let* () = check_expr bound e in
        check_stmts (Sset.add name bound) rest
    | Store (buf, idx, v) :: rest ->
        let* () =
          match param_kind kernel.kname kernel.params buf with
          | Error _ as e -> e
          | Ok Out_buffer -> Ok ()
          | Ok Scalar ->
              err "kernel %s: store to scalar %s" kernel.kname buf
          | Ok In_buffer ->
              err "kernel %s: store to input buffer %s" kernel.kname buf
        in
        let* () = check_expr bound idx in
        let* () = check_expr bound v in
        check_stmts bound rest
    | If (c, t_, e_) :: rest ->
        let* () = check_expr bound c in
        let* _ = check_stmts bound t_ in
        let* _ = check_stmts bound e_ in
        check_stmts bound rest
    | For { var; lo; hi; body } :: rest ->
        let* () = check_expr bound lo in
        let* () = check_expr bound hi in
        let* _ = check_stmts (Sset.add var bound) body in
        check_stmts bound rest
  in
  let* _ = check_stmts Sset.empty kernel.body in
  Ok ()

let check_args kernel args =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  if List.length args <> List.length kernel.params then
    err "kernel %s: expected %d arguments, got %d" kernel.kname
      (List.length kernel.params) (List.length args)
  else
    List.fold_left
      (fun acc p ->
        Result.bind acc (fun () ->
            match List.assoc_opt p.pname args with
            | None -> err "kernel %s: missing argument %s" kernel.kname p.pname
            | Some (Scalar_arg _) when p.kind = Scalar -> Ok ()
            | Some (Buffer_arg _) when p.kind <> Scalar -> Ok ()
            | Some _ ->
                err "kernel %s: argument %s has the wrong kind" kernel.kname
                  p.pname))
      (Ok ()) kernel.params

(* ------------------------------------------------------------------ *)
(* Compilation to closures                                             *)
(* ------------------------------------------------------------------ *)

(* Compilation is split in two so the expensive part can be cached:

   - {!prepare} resolves variables to slots of a per-thread scratch
     array and parameters to positions of an argument environment, and
     builds the closure tree — once per kernel;
   - {!bind} packs the actual scalar values and buffer arrays into that
     environment — once per launch, a few array writes.

   Running a thread then allocates only the scratch array. *)

type env = { scalars : int array; buffers : int array array }

type prepared = {
  p_kernel : t;
  p_scratch : int;
  p_run : env -> int array -> int array -> unit;  (* [run env scratch gid] *)
}

type compiled = { scratch_size : int; run : int array -> int array -> unit }
(* [run scratch gid] *)

let param_positions kernel =
  (* Scalars and buffers get independent position spaces so [bind] can
     pack each into a flat array. *)
  let scalars = ref 0 and buffers = ref 0 in
  List.map
    (fun p ->
      match p.kind with
      | Scalar ->
          let i = !scalars in
          incr scalars;
          (p.pname, `Scalar i)
      | In_buffer | Out_buffer ->
          let i = !buffers in
          incr buffers;
          (p.pname, `Buffer i))
    kernel.params

let prepare kernel =
  (match validate kernel with
  | Ok () -> ()
  | Error m -> invalid_arg (Printf.sprintf "Kir.prepare: %s" m));
  let positions = param_positions kernel in
  let scalar_pos name =
    match List.assoc name positions with
    | `Scalar i -> i
    | `Buffer _ -> assert false
  in
  let buffer_pos name =
    match List.assoc name positions with
    | `Buffer i -> i
    | `Scalar _ -> assert false
  in
  let next_slot = ref 0 in
  let fresh_slot () =
    let s = !next_slot in
    incr next_slot;
    s
  in
  (* Scope: variable name -> slot.  Scoping is lexical; shadowing binds a
     fresh slot. *)
  let rec comp_expr scope = function
    | Int n -> fun _ _ _ -> n
    | Gid d -> fun _ _ gid -> gid.(d)
    | Param name ->
        let i = scalar_pos name in
        fun env _ _ -> env.scalars.(i)
    | Var name ->
        let slot = List.assoc name scope in
        fun _ scratch _ -> scratch.(slot)
    | Read (buf, idx) ->
        let bi = buffer_pos buf in
        let idx = comp_expr scope idx in
        fun env scratch gid -> env.buffers.(bi).(idx env scratch gid)
    | Bin (op, a, b) -> (
        let a = comp_expr scope a and b = comp_expr scope b in
        match op with
        | Add -> fun e s g -> a e s g + b e s g
        | Sub -> fun e s g -> a e s g - b e s g
        | Mul -> fun e s g -> a e s g * b e s g
        | Div ->
            fun e s g ->
              let d = b e s g in
              if d = 0 then raise (Kernel_error "division by zero")
              else a e s g / d
        | Mod ->
            fun e s g ->
              let d = b e s g in
              if d = 0 then raise (Kernel_error "modulo by zero")
              else a e s g mod d
        | Min -> fun e s g -> min (a e s g) (b e s g)
        | Max -> fun e s g -> max (a e s g) (b e s g)
        | Lt -> fun e s g -> int_of_bool (a e s g < b e s g)
        | Le -> fun e s g -> int_of_bool (a e s g <= b e s g)
        | Gt -> fun e s g -> int_of_bool (a e s g > b e s g)
        | Ge -> fun e s g -> int_of_bool (a e s g >= b e s g)
        | Eq -> fun e s g -> int_of_bool (a e s g = b e s g)
        | Ne -> fun e s g -> int_of_bool (a e s g <> b e s g)
        | And -> fun e s g -> int_of_bool (a e s g <> 0 && b e s g <> 0)
        | Or -> fun e s g -> int_of_bool (a e s g <> 0 || b e s g <> 0))
    | Select (c, a, b) ->
        let c = comp_expr scope c
        and a = comp_expr scope a
        and b = comp_expr scope b in
        fun e s g -> if c e s g <> 0 then a e s g else b e s g
  in
  let rec comp_stmts scope = function
    | [] -> (scope, fun _ _ _ -> ())
    | stmt :: rest ->
        let scope, head = comp_stmt scope stmt in
        let scope, tail = comp_stmts scope rest in
        ( scope,
          fun e s g ->
            head e s g;
            tail e s g )
  and comp_stmt scope = function
    | Let (name, e) ->
        let e = comp_expr scope e in
        let slot = fresh_slot () in
        ( (name, slot) :: scope,
          fun env s g -> s.(slot) <- e env s g )
    | Store (buf, idx, v) ->
        let bi = buffer_pos buf in
        let idx = comp_expr scope idx and v = comp_expr scope v in
        (scope, fun e s g -> e.buffers.(bi).(idx e s g) <- v e s g)
    | If (c, then_, else_) ->
        let c = comp_expr scope c in
        let _, then_ = comp_stmts scope then_ in
        let _, else_ = comp_stmts scope else_ in
        (scope, fun e s g -> if c e s g <> 0 then then_ e s g else else_ e s g)
    | For { var; lo; hi; body } ->
        let lo = comp_expr scope lo and hi = comp_expr scope hi in
        let slot = fresh_slot () in
        let _, body = comp_stmts ((var, slot) :: scope) body in
        ( scope,
          fun e s g ->
            let stop = hi e s g in
            let i = ref (lo e s g) in
            while !i < stop do
              s.(slot) <- !i;
              body e s g;
              incr i
            done )
  in
  let _, run = comp_stmts [] kernel.body in
  { p_kernel = kernel; p_scratch = max 1 !next_slot; p_run = run }

let bind prepared ~args =
  let kernel = prepared.p_kernel in
  (match check_args kernel args with
  | Ok () -> ()
  | Error m -> invalid_arg (Printf.sprintf "Kir.bind: %s" m));
  let scalars = ref [] and buffers = ref [] in
  List.iter
    (fun p ->
      match (p.kind, List.assoc p.pname args) with
      | Scalar, Scalar_arg v -> scalars := v :: !scalars
      | (In_buffer | Out_buffer), Buffer_arg b ->
          buffers := b.Buffer.data :: !buffers
      | _ -> assert false (* check_args *))
    kernel.params;
  let env =
    {
      scalars = Array.of_list (List.rev !scalars);
      buffers = Array.of_list (List.rev !buffers);
    }
  in
  let p_run = prepared.p_run in
  { scratch_size = prepared.p_scratch; run = (fun s g -> p_run env s g) }

(* Process-wide memo of prepared kernels, so short-lived contexts (one
   per plane or frame in the pooled drivers) still compile each kernel
   only once.  Kernels are immutable structural data: they make sound
   hash keys, and prepared closures are safe to share across domains. *)
let shared_lock = Mutex.create ()

let shared : (t, prepared) Hashtbl.t = Hashtbl.create 64

let shared_prepare_memo kernel =
  Mutex.lock shared_lock;
  let cached = Hashtbl.find_opt shared kernel in
  Mutex.unlock shared_lock;
  match cached with
  | Some p -> (p, true)
  | None ->
      (* Prepared outside the lock: preparation is pure, so a racing
         duplicate is only a little wasted work. *)
      let p = prepare kernel in
      Mutex.lock shared_lock;
      if not (Hashtbl.mem shared kernel) then Hashtbl.add shared kernel p;
      Mutex.unlock shared_lock;
      (p, false)

let shared_prepare kernel = fst (shared_prepare_memo kernel)

let compile kernel ~args = bind (prepare kernel) ~args

(* ------------------------------------------------------------------ *)
(* Data-independence of the cost profile                               *)
(* ------------------------------------------------------------------ *)

(* {!profile_threads} is cacheable across launches when the address
   trace and operation count of a thread cannot depend on buffer
   contents: every control expression (If/Select condition, For bound),
   every Read/Store index, and every Div/Mod divisor must be free of
   values loaded from buffers.  A taint analysis over let-bound
   variables decides this conservatively. *)

exception Data_dependent

let cost_data_independent kernel =
  let rec taint tainted = function
    | Int _ | Gid _ | Param _ -> false
    | Var v -> Sset.mem v tainted
    | Read (_, idx) ->
        if taint tainted idx then raise Data_dependent;
        true
    | Bin ((Div | Mod), a, b) ->
        if taint tainted b then raise Data_dependent;
        taint tainted a
    | Bin (_, a, b) ->
        let ta = taint tainted a in
        taint tainted b || ta
    | Select (c, a, b) ->
        if taint tainted c then raise Data_dependent;
        let ta = taint tainted a in
        taint tainted b || ta
  in
  let untainted tainted e = if taint tainted e then raise Data_dependent in
  let rec stmts tainted = function
    | [] -> tainted
    | Let (name, e) :: rest ->
        let tainted =
          if taint tainted e then Sset.add name tainted
          else Sset.remove name tainted
        in
        stmts tainted rest
    | Store (_, idx, v) :: rest ->
        untainted tainted idx;
        ignore (taint tainted v);
        stmts tainted rest
    | If (c, t_, e_) :: rest ->
        untainted tainted c;
        ignore (stmts tainted t_);
        ignore (stmts tainted e_);
        stmts tainted rest
    | For { var; lo; hi; body } :: rest ->
        untainted tainted lo;
        untainted tainted hi;
        ignore (stmts (Sset.remove var tainted) body);
        stmts tainted rest
  in
  match stmts Sset.empty kernel.body with
  | _ -> true
  | exception Data_dependent -> false

(* ------------------------------------------------------------------ *)
(* Grid execution                                                      *)
(* ------------------------------------------------------------------ *)

let run_thread compiled gid =
  let scratch = Array.make compiled.scratch_size 0 in
  compiled.run scratch gid

(* Execute the linearised work-items [lo, hi).  One unravel per range,
   then in-place increments: the per-item [Index.unravel] allocation of
   the old parallel path dominated small kernels. *)
let run_range compiled grid lo hi =
  if lo < hi then begin
    let scratch = Array.make compiled.scratch_size 0 in
    let gid = Ndarray.Index.unravel grid lo in
    compiled.run scratch gid;
    for _ = lo + 1 to hi - 1 do
      ignore (Ndarray.Index.next_in_place grid gid);
      compiled.run scratch gid
    done
  end

let run_grid ?(domains = 1) compiled grid =
  let total = Ndarray.Shape.size grid in
  if total > 0 then
    let domains = if domains <= 0 then Pool.default_domains () else domains in
    if domains <= 1 then run_range compiled grid 0 total
    else
      Pool.parallel_for ~chunks:domains (Pool.get ()) ~lo:0 ~hi:total
        (run_range compiled grid)

(* ------------------------------------------------------------------ *)
(* Instrumented interpretation for cost profiling                      *)
(* ------------------------------------------------------------------ *)

(* Static memory-behaviour summary attached to costs derived without
   executing the kernel (see {!static_cost} at the bottom of this
   file).  Warp-level quantities are modelled over the simulator's
   32-lane warps: a "segment" is a 32-word (128-byte) aligned span of a
   buffer, the granularity a coalesced transaction fetches. *)

type buffer_access = {
  ba_buffer : string;
  ba_reads : float;  (** mean reads per sampled thread on this buffer *)
  ba_class : [ `Row | `Column | `Gather ];
  ba_burst : float;  (** mean per-thread consecutive-address run length *)
  ba_efficiency : float;
      (** warp coalescing efficiency: useful words / fetched words over
          the sampled warps' per-step transactions, in [0, 1] *)
  ba_overlap : float;
      (** fraction of warp read events re-fetching an address some lane
          of the warp already read — the reuse a scratchpad stage would
          absorb *)
  ba_bank_conflict : int;
      (** modelled shared-memory conflict degree if the warp's loads
          were staged: max lanes hitting one of 32 banks in a step *)
}

type branch_summary = {
  br_cond : expr;  (** condition of the [If] *)
  br_divergent : bool;
      (** some sampled warp's lanes took different decision sequences *)
  br_ops : float;  (** mean ops per thread inside the branch region *)
  br_stores : float;  (** mean stores per thread inside the region *)
}

type access_summary = {
  as_buffers : buffer_access list;  (** in kernel-parameter order *)
  as_branches : branch_summary list;  (** in program order *)
  as_divergent_branches : int;
  as_divergent_ops : float;
      (** mean per-thread ops inside divergent regions — lanes of a
          mixed warp serialise these *)
  as_stranded_lanes : int;
      (** idle lanes of the last warp: (32 - total mod 32) mod 32 *)
  as_warp_size : int;
}

type cost = {
  reads_per_thread : float;
  writes_per_thread : float;
  ops_per_thread : float;
  access : [ `Row | `Column | `Gather ];
  read_burst : float;
  summary : access_summary option;
      (** present when the cost was derived statically *)
}

type trace = {
  mutable reads : int;
  mutable writes : int;
  mutable ops : int;
  mutable read_addrs : int list;  (** reversed trace of read addresses *)
}

let interp_thread kernel ~args ~gid trace =
  let scalar name =
    match List.assoc name args with
    | Scalar_arg v -> v
    | Buffer_arg _ -> assert false
  in
  let buffer name =
    match List.assoc name args with
    | Buffer_arg b -> b.Buffer.data
    | Scalar_arg _ -> assert false
  in
  let rec eval env = function
    | Int n -> n
    | Gid d -> gid.(d)
    | Param name -> scalar name
    | Var name -> List.assoc name env
    | Read (buf, idx) ->
        let i = eval env idx in
        trace.reads <- trace.reads + 1;
        trace.read_addrs <- i :: trace.read_addrs;
        let data = buffer buf in
        if i < 0 || i >= Array.length data then
          raise
            (Kernel_error
               (Printf.sprintf "%s: out-of-bounds read %s[%d]" kernel.kname
                  buf i))
        else data.(i)
    | Bin (op, a, b) ->
        trace.ops <- trace.ops + 1;
        apply_binop op (eval env a) (eval env b)
    | Select (c, a, b) ->
        trace.ops <- trace.ops + 1;
        if eval env c <> 0 then eval env a else eval env b
  in
  let rec exec env = function
    | [] -> env
    | Let (name, e) :: rest -> exec ((name, eval env e) :: env) rest
    | Store (buf, idx, v) :: rest ->
        let i = eval env idx in
        let v = eval env v in
        trace.writes <- trace.writes + 1;
        let data = buffer buf in
        if i < 0 || i >= Array.length data then
          raise
            (Kernel_error
               (Printf.sprintf "%s: out-of-bounds write %s[%d]" kernel.kname
                  buf i))
        else data.(i) <- v;
        exec env rest
    | If (c, then_, else_) :: rest ->
        ignore (exec env (if eval env c <> 0 then then_ else else_));
        exec env rest
    | For { var; lo; hi; body } :: rest ->
        let stop = eval env hi in
        let i = ref (eval env lo) in
        while !i < stop do
          ignore (exec ((var, !i) :: env) body);
          incr i
        done;
        exec env rest
  in
  ignore (exec [] kernel.body)

(* Classify the read pattern of one thread from its address trace: the
   median gap between consecutively issued reads.  Generated downscaler
   kernels read either consecutive pixels of a row (gap 1: [`Row]) or a
   fixed column of consecutive rows (gap = row width: [`Column]). *)
(* A trace accumulated most recent first, as an array in issue order. *)
let issued addrs =
  let a = Array.of_list addrs in
  let n = Array.length a in
  for i = 0 to (n / 2) - 1 do
    let x = a.(i) in
    a.(i) <- a.(n - 1 - i);
    a.(n - 1 - i) <- x
  done;
  a

(* The [k]-th smallest element of [a] (0-based), by Wirth's
   selection; permutes [a]. *)
let select a k =
  let l = ref 0 and r = ref (Array.length a - 1) in
  while !l < !r do
    let x = a.(k) in
    let i = ref !l and j = ref !r in
    while !i <= !j do
      while a.(!i) < x do incr i done;
      while x < a.(!j) do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    if !j < k then l := !i;
    if k < !i then r := !j
  done;
  a.(k)

let classify_issued a =
  if Array.length a <= 1 then `Row
  else
    let gaps =
      Array.init (Array.length a - 1) (fun i -> abs (a.(i + 1) - a.(i)))
    in
    let smallest = Array.fold_left min max_int gaps in
    let median = select gaps (Array.length gaps / 2) in
    if median <= 2 then `Row
    else if median >= 8 then
      (* Constant large stride = column walk; irregular = gather. *)
      let uniform = Array.for_all (fun g -> g = smallest || g <= 2) gaps in
      if uniform then `Column else `Gather
    else `Gather

let classify_addrs addrs = classify_issued (issued addrs)

(* Mean length of maximal consecutive-address runs in issue order. *)
let burst_issued a =
  if Array.length a = 0 then 1.0
  else begin
    let runs = ref 1 in
    for i = 0 to Array.length a - 2 do
      (* Ascending or descending unit steps both form a burst (code
         generators may emit window reads in either order). *)
      if abs (a.(i + 1) - a.(i)) <> 1 then incr runs
    done;
    float_of_int (Array.length a) /. float_of_int !runs
  end

let burst_of_addrs addrs = burst_issued (issued addrs)

(* Majority vote over per-thread classes; ties favour [`Row]. *)
let class_of ~row ~col ~gather =
  if gather > row && gather > col then `Gather
  else if col > row then `Column
  else `Row

let profile_threads kernel ~args ~grid =
  (match check_args kernel args with
  | Ok () -> ()
  | Error m -> invalid_arg (Printf.sprintf "Kir.profile_threads: %s" m));
  let total = Ndarray.Shape.size grid in
  if total = 0 then
    { reads_per_thread = 0.; writes_per_thread = 0.; ops_per_thread = 0.;
      access = `Row; read_burst = 1.0; summary = None }
  else begin
    let samples = min total 64 in
    let step = max 1 (total / samples) in
    let reads = ref 0 and writes = ref 0 and ops = ref 0 in
    let votes_row = ref 0 and votes_col = ref 0 and votes_gather = ref 0 in
    let burst_sum = ref 0.0 in
    let n = ref 0 in
    let lin = ref 0 in
    while !lin < total do
      let gid = Ndarray.Index.unravel grid !lin in
      let trace = { reads = 0; writes = 0; ops = 0; read_addrs = [] } in
      interp_thread kernel ~args ~gid trace;
      reads := !reads + trace.reads;
      writes := !writes + trace.writes;
      ops := !ops + trace.ops;
      burst_sum := !burst_sum +. burst_of_addrs trace.read_addrs;
      (match classify_addrs trace.read_addrs with
      | `Row -> incr votes_row
      | `Column -> incr votes_col
      | `Gather -> incr votes_gather);
      incr n;
      lin := !lin + step
    done;
    let nf = float_of_int !n in
    let access =
      class_of ~row:!votes_row ~col:!votes_col ~gather:!votes_gather
    in
    {
      reads_per_thread = float_of_int !reads /. nf;
      writes_per_thread = float_of_int !writes /. nf;
      ops_per_thread = float_of_int !ops /. nf;
      access;
      read_burst = !burst_sum /. nf;
      summary = None;
    }
  end

(* ------------------------------------------------------------------ *)
(* Static (data-free) cost derivation                                  *)
(* ------------------------------------------------------------------ *)

(* {!static_cost} re-derives the {!profile_threads} numbers without
   touching buffer data: buffer loads evaluate to an opaque value, and
   the evaluator demands that every address, branch condition and
   loop bound still reduce to a concrete integer.  For any kernel that
   passes {!cost_data_independent} this succeeds and — because it
   mirrors [interp_thread]'s evaluation and counting order and samples
   the identical thread set — reproduces the executed profile exactly,
   while additionally deriving warp-level structure (coalescing
   efficiency, read overlap, bank-conflict degree, divergence) from
   three densely sampled warps. *)

exception Static_blocked of string

(* The static evaluator is compiled once per {!static_cost} call, like
   {!prepare}: variables resolve to slots (shadowing binds a fresh
   slot), each [Read] to its buffer's parameter index and each [If] to
   a site id.  A compiled expression returns its value and leaves its
   known-ness in [known]; slots keep theirs in the parallel [kn] array,
   so evaluation allocates nothing but the address traces. *)
type sstate = {
  mutable gid : int array;
  mutable known : bool;  (* known-ness of the value just returned *)
  vals : int array;  (* slot values *)
  kn : bool array;  (* slot known-ness *)
  mutable s_reads : int;
  mutable s_writes : int;
  mutable s_ops : int;
  mutable s_read_addrs : int list;  (* reversed, like [trace] *)
  buf_addrs : int list array;  (* reversed, per parameter index *)
  decisions : bool list array;  (* reversed, per If site *)
  site_ops : int array;
  site_stores : int array;
}

type static_eval = {
  nslots : int;
  nsites : int;
  sites : expr list;  (* If conditions by site id *)
  run : sstate -> unit;
}

let blocked m = raise (Static_blocked m)

let compile_static ~scalars kernel =
  let buffer_index name =
    let rec go i = function
      | p :: _ when p.pname = name -> i
      | _ :: rest -> go (i + 1) rest
      | [] -> assert false (* validate *)
    in
    go 0 kernel.params
  in
  let next_slot = ref 0 and next_site = ref 0 and sites = ref [] in
  (* Variable name -> slot; [Hashtbl.add] shadows and [Hashtbl.remove]
     restores the outer binding, so the table follows lexical scope. *)
  let scope : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let fresh counter =
    let s = !counter in
    incr counter;
    s
  in
  let rec comp_expr = function
    | Int n ->
        fun t ->
          t.known <- true;
          n
    | Gid d ->
        fun t ->
          t.known <- true;
          t.gid.(d)
    | Param name -> (
        match List.assoc_opt name scalars with
        | Some v ->
            fun t ->
              t.known <- true;
              v
        | None ->
            let m = Printf.sprintf "no static value for scalar %s" name in
            fun _ -> blocked m)
    | Var name ->
        let slot = Hashtbl.find scope name in
        fun t ->
          t.known <- t.kn.(slot);
          t.vals.(slot)
    | Read (buf, idx) ->
        let bi = buffer_index buf in
        let idx = comp_expr idx in
        fun t ->
          let i = idx t in
          if not t.known then blocked "buffer-dependent read address";
          t.s_reads <- t.s_reads + 1;
          t.s_read_addrs <- i :: t.s_read_addrs;
          t.buf_addrs.(bi) <- i :: t.buf_addrs.(bi);
          t.known <- false;
          0
    | Bin (op, a, b) -> (
        (* Same counting as [interp_thread]: one op, both operands
           evaluated unconditionally — right-to-left, matching the
           argument evaluation order of its [apply_binop] call, so the
           issue order of read addresses (and hence burst) agrees. *)
        let a = comp_expr a and b = comp_expr b in
        let strict f t =
          t.s_ops <- t.s_ops + 1;
          let vb = b t in
          let kb = t.known in
          let va = a t in
          t.known <- t.known && kb;
          f va vb
        in
        (* A known operand can decide the result alone. *)
        let absorbing ~decides ~result f t =
          t.s_ops <- t.s_ops + 1;
          let vb = b t in
          let kb = t.known in
          let va = a t in
          let ka = t.known in
          if ka && kb then f va vb
          else if (ka && decides va) || (kb && decides vb) then begin
            t.known <- true;
            result
          end
          else begin
            t.known <- false;
            0
          end
        in
        match op with
        | Div | Mod ->
            fun t ->
              t.s_ops <- t.s_ops + 1;
              let vb = b t in
              let kb = t.known in
              let va = a t in
              if kb && vb = 0 then blocked "division or modulo by zero";
              if not kb then blocked "buffer-dependent divisor";
              if t.known then apply_binop op va vb else 0
        | Mul -> absorbing ~decides:(fun v -> v = 0) ~result:0 ( * )
        | And ->
            absorbing ~decides:(fun v -> v = 0) ~result:0 (fun x y ->
                int_of_bool (x <> 0 && y <> 0))
        | Or ->
            absorbing ~decides:(fun v -> v <> 0) ~result:1 (fun x y ->
                int_of_bool (x <> 0 || y <> 0))
        | Add -> strict ( + )
        | Sub -> strict ( - )
        | Min -> strict min
        | Max -> strict max
        | Lt -> strict (fun x y -> int_of_bool (x < y))
        | Le -> strict (fun x y -> int_of_bool (x <= y))
        | Gt -> strict (fun x y -> int_of_bool (x > y))
        | Ge -> strict (fun x y -> int_of_bool (x >= y))
        | Eq -> strict (fun x y -> int_of_bool (x = y))
        | Ne -> strict (fun x y -> int_of_bool (x <> y)))
    | Select (c, a, b) ->
        let c = comp_expr c and a = comp_expr a and b = comp_expr b in
        fun t ->
          t.s_ops <- t.s_ops + 1;
          let v = c t in
          if not t.known then blocked "buffer-dependent select condition";
          if v <> 0 then a t else b t
  in
  (* A block's lets go out of scope at its end. *)
  let rec comp_block stmts =
    let bound = ref [] in
    let run = comp_stmts bound stmts in
    List.iter (Hashtbl.remove scope) !bound;
    run
  and comp_stmts bound = function
    | [] -> fun _ -> ()
    | stmt :: rest ->
        let head = comp_stmt bound stmt in
        let tail = comp_stmts bound rest in
        fun t ->
          head t;
          tail t
  and comp_stmt bound = function
    | Let (name, e) ->
        let e = comp_expr e in
        let slot = fresh next_slot in
        Hashtbl.add scope name slot;
        bound := name :: !bound;
        fun t ->
          t.vals.(slot) <- e t;
          t.kn.(slot) <- t.known
    | Store (_, idx, v) ->
        let idx = comp_expr idx and v = comp_expr v in
        fun t ->
          ignore (idx t);
          if not t.known then blocked "buffer-dependent store address";
          ignore (v t);
          t.s_writes <- t.s_writes + 1
    | If (c, then_, else_) ->
        (* Sites are numbered in pre-order, the else branch's before the
           then branch's; [as_branches] lists them in id order. *)
        let site = fresh next_site in
        sites := c :: !sites;
        let c = comp_expr c in
        let else_ = comp_block else_ in
        let then_ = comp_block then_ in
        fun t ->
          let v = c t in
          if not t.known then blocked "buffer-dependent branch";
          let taken = v <> 0 in
          t.decisions.(site) <- taken :: t.decisions.(site);
          let ops0 = t.s_ops and st0 = t.s_writes in
          if taken then then_ t else else_ t;
          t.site_ops.(site) <- t.site_ops.(site) + (t.s_ops - ops0);
          t.site_stores.(site) <- t.site_stores.(site) + (t.s_writes - st0)
    | For { var; lo; hi; body } ->
        let lo = comp_expr lo and hi = comp_expr hi in
        let slot = fresh next_slot in
        Hashtbl.add scope var slot;
        let body = comp_block body in
        Hashtbl.remove scope var;
        fun t ->
          let stop = hi t in
          if not t.known then blocked "buffer-dependent loop bound";
          let i = ref (lo t) in
          if not t.known then blocked "buffer-dependent loop bound";
          while !i < stop do
            t.vals.(slot) <- !i;
            t.kn.(slot) <- true;
            body t;
            incr i
          done
  in
  let run = comp_block kernel.body in
  { nslots = !next_slot; nsites = !next_site; sites = List.rev !sites; run }

let new_sstate ev ~nparams =
  {
    gid = [||];
    known = true;
    vals = Array.make (max 1 ev.nslots) 0;
    kn = Array.make (max 1 ev.nslots) false;
    s_reads = 0;
    s_writes = 0;
    s_ops = 0;
    s_read_addrs = [];
    buf_addrs = Array.make nparams [];
    decisions = Array.make (max 1 ev.nsites) [];
    site_ops = Array.make (max 1 ev.nsites) 0;
    site_stores = Array.make (max 1 ev.nsites) 0;
  }

(* Evaluate one thread from a clean trace. *)
let eval_thread ev t gid =
  t.gid <- gid;
  t.s_reads <- 0;
  t.s_writes <- 0;
  t.s_ops <- 0;
  t.s_read_addrs <- [];
  Array.fill t.buf_addrs 0 (Array.length t.buf_addrs) [];
  Array.fill t.decisions 0 (Array.length t.decisions) [];
  Array.fill t.site_ops 0 (Array.length t.site_ops) 0;
  Array.fill t.site_stores 0 (Array.length t.site_stores) 0;
  ev.run t

let warp_size = 32

(* Floor division for (defensively) possibly-negative addresses. *)
let seg_of a = if a >= 0 then a / warp_size else ((a + 1) / warp_size) - 1

let bank_of a = ((a mod warp_size) + warp_size) mod warp_size

type bstat = {
  mutable touched : bool;  (* read by some sampled thread or warp lane *)
  mutable b_reads : int;
  mutable b_burst : float;
  mutable b_threads : int;  (* sampled threads that touched the buffer *)
  mutable b_row : int;
  mutable b_col : int;
  mutable b_gather : int;
  (* warp-dense phase *)
  mutable b_events : int;  (* read events across sampled warps *)
  mutable b_distinct : int;  (* distinct addresses across sampled warps *)
  mutable b_useful : int;  (* distinct words the warp consumes *)
  mutable b_fetched : int;  (* words of the distinct segments fetched *)
  mutable b_bank : int;  (* max bank-conflict degree over steps *)
}

(* Per-step transaction structure of one warp's reads of one buffer:
   [per_lane.(l)] is lane [l]'s address trace in issue order.
   [step] (32 entries) and [banks] (32 counters, all zero on entry and
   on exit) are reused across calls. *)
let warp_steps st per_lane ~step ~banks =
  let maxlen = Array.fold_left (fun m a -> max m (Array.length a)) 0 per_lane in
  for k = 0 to maxlen - 1 do
    (* The k-th issued read of every lane that has one, sorted. *)
    let m = ref 0 in
    for l = 0 to Array.length per_lane - 1 do
      let a = per_lane.(l) in
      if k < Array.length a then begin
        let x = a.(k) in
        let j = ref !m in
        while !j > 0 && step.(!j - 1) > x do
          step.(!j) <- step.(!j - 1);
          decr j
        done;
        step.(!j) <- x;
        incr m
      end
    done;
    st.b_events <- st.b_events + !m;
    (* Bank-conflict degree over the step's distinct addresses. *)
    let worst = ref 0 in
    for j = 0 to !m - 1 do
      if j = 0 || step.(j) <> step.(j - 1) then begin
        let bk = bank_of step.(j) in
        banks.(bk) <- banks.(bk) + 1;
        if banks.(bk) > !worst then worst := banks.(bk)
      end
    done;
    for j = 0 to !m - 1 do
      banks.(bank_of step.(j)) <- 0
    done;
    if !worst > st.b_bank then st.b_bank <- !worst
  done;
  (* Cache-amortised coalescing: a segment fetched at one transaction
     step stays resident for the warp's later steps (the Fermi L1
     assumption), so efficiency is the distinct words consumed over the
     words of the distinct segments fetched — strided-burst row walks
     amortise to ~1.0 while a transposed walk still wastes 31/32 of
     each line. *)
  let all = Array.concat (Array.to_list per_lane) in
  Array.stable_sort Int.compare all;
  let distinct = ref 0 and segs = ref 0 in
  for j = 0 to Array.length all - 1 do
    if j = 0 || all.(j) <> all.(j - 1) then begin
      incr distinct;
      if j = 0 || seg_of all.(j) <> seg_of all.(j - 1) then incr segs
    end
  done;
  st.b_useful <- st.b_useful + !distinct;
  st.b_fetched <- st.b_fetched + (warp_size * !segs);
  st.b_distinct <- st.b_distinct + !distinct

let static_cost ?(scalars = []) kernel ~grid =
  match validate kernel with
  | Error m -> Error (Printf.sprintf "invalid kernel: %s" m)
  | Ok () ->
      if not (cost_data_independent kernel) then
        Error "thread cost depends on buffer contents"
      else begin
        let total = Ndarray.Shape.size grid in
        let stranded = (warp_size - (total mod warp_size)) mod warp_size in
        if total = 0 then
          Ok
            {
              reads_per_thread = 0.; writes_per_thread = 0.;
              ops_per_thread = 0.; access = `Row; read_burst = 1.0;
              summary =
                Some
                  {
                    as_buffers = []; as_branches = [];
                    as_divergent_branches = 0; as_divergent_ops = 0.;
                    as_stranded_lanes = 0; as_warp_size = warp_size;
                  };
            }
        else
          try
            let ev = compile_static ~scalars kernel in
            let nsites = ev.nsites in
            let nparams = List.length kernel.params in
            let t = new_sstate ev ~nparams in
            let bstats =
              Array.init nparams (fun _ ->
                  { touched = false; b_reads = 0; b_burst = 0.; b_threads = 0;
                    b_row = 0; b_col = 0; b_gather = 0; b_events = 0;
                    b_distinct = 0; b_useful = 0; b_fetched = 0; b_bank = 0 })
            in
            (* Phase A: replicate [profile_threads]' thread sample and
               aggregation bit-for-bit, with per-buffer splits. *)
            let samples = min total 64 in
            let step = max 1 (total / samples) in
            let reads = ref 0 and writes = ref 0 and ops = ref 0 in
            let votes_row = ref 0
            and votes_col = ref 0
            and votes_gather = ref 0 in
            let burst_sum = ref 0.0 in
            let n = ref 0 in
            let lin = ref 0 in
            while !lin < total do
              eval_thread ev t (Ndarray.Index.unravel grid !lin);
              reads := !reads + t.s_reads;
              writes := !writes + t.s_writes;
              ops := !ops + t.s_ops;
              let a = issued t.s_read_addrs in
              burst_sum := !burst_sum +. burst_issued a;
              (match classify_issued a with
              | `Row -> incr votes_row
              | `Column -> incr votes_col
              | `Gather -> incr votes_gather);
              Array.iteri
                (fun bi l ->
                  if l <> [] then begin
                    let st = bstats.(bi) in
                    let a = issued l in
                    st.touched <- true;
                    st.b_reads <- st.b_reads + Array.length a;
                    st.b_burst <- st.b_burst +. burst_issued a;
                    st.b_threads <- st.b_threads + 1;
                    match classify_issued a with
                    | `Row -> st.b_row <- st.b_row + 1
                    | `Column -> st.b_col <- st.b_col + 1
                    | `Gather -> st.b_gather <- st.b_gather + 1
                  end)
                t.buf_addrs;
              incr n;
              lin := !lin + step
            done;
            let nf = float_of_int !n in
            let access =
              class_of ~row:!votes_row ~col:!votes_col ~gather:!votes_gather
            in
            (* Phase B: three dense warps (first, middle, last) for the
               cross-lane structure the per-thread sample cannot see. *)
            let starts =
              let align l = l / warp_size * warp_size in
              List.sort_uniq compare
                [ 0; align (total / 2); align (total - 1) ]
            in
            let site_div = Array.make (max 1 nsites) false in
            let site_ops_sum = Array.make (max 1 nsites) 0 in
            let site_stores_sum = Array.make (max 1 nsites) 0 in
            let lane_count = ref 0 in
            let step_buf = Array.make warp_size 0 in
            let banks = Array.make warp_size 0 in
            List.iter
              (fun start ->
                let lanes = min warp_size (total - start) in
                (* Each lane's buffer traces and decisions, kept past the
                   next lane's run. *)
                let lane_addrs = Array.make lanes [||] in
                let lane_decisions = Array.make lanes [||] in
                for l = 0 to lanes - 1 do
                  eval_thread ev t (Ndarray.Index.unravel grid (start + l));
                  lane_addrs.(l) <- Array.copy t.buf_addrs;
                  lane_decisions.(l) <- Array.copy t.decisions;
                  for s = 0 to nsites - 1 do
                    site_ops_sum.(s) <- site_ops_sum.(s) + t.site_ops.(s);
                    site_stores_sum.(s) <-
                      site_stores_sum.(s) + t.site_stores.(s)
                  done
                done;
                lane_count := !lane_count + lanes;
                for s = 0 to nsites - 1 do
                  let d0 = lane_decisions.(0).(s) in
                  for l = 1 to lanes - 1 do
                    if lane_decisions.(l).(s) <> d0 then site_div.(s) <- true
                  done
                done;
                for bi = 0 to nparams - 1 do
                  if Array.exists (fun a -> a.(bi) <> []) lane_addrs then begin
                    let st = bstats.(bi) in
                    st.touched <- true;
                    warp_steps st
                      (Array.map (fun a -> issued a.(bi)) lane_addrs)
                      ~step:step_buf ~banks
                  end
                done)
              starts;
            let lanes_f = float_of_int (max 1 !lane_count) in
            let branches =
              List.mapi
                (fun id cond ->
                  {
                    br_cond = cond;
                    br_divergent = site_div.(id);
                    br_ops = float_of_int site_ops_sum.(id) /. lanes_f;
                    br_stores = float_of_int site_stores_sum.(id) /. lanes_f;
                  })
                ev.sites
            in
            let divergent = List.filter (fun b -> b.br_divergent) branches in
            let buffers =
              List.concat
                (List.mapi
                   (fun bi p ->
                     let st = bstats.(bi) in
                     if p.kind = Scalar || not st.touched then []
                     else
                       let tf = float_of_int (max 1 st.b_threads) in
                       [
                         {
                           ba_buffer = p.pname;
                           ba_reads = float_of_int st.b_reads /. nf;
                           ba_class =
                             class_of ~row:st.b_row ~col:st.b_col
                               ~gather:st.b_gather;
                           ba_burst = st.b_burst /. tf;
                           ba_efficiency =
                             (if st.b_fetched = 0 then 1.0
                              else
                                float_of_int st.b_useful
                                /. float_of_int st.b_fetched);
                           ba_overlap =
                             (if st.b_events = 0 then 0.0
                              else
                                1.0
                                -. float_of_int st.b_distinct
                                   /. float_of_int st.b_events);
                           ba_bank_conflict = max 1 st.b_bank;
                         };
                       ])
                   kernel.params)
            in
            Ok
              {
                reads_per_thread = float_of_int !reads /. nf;
                writes_per_thread = float_of_int !writes /. nf;
                ops_per_thread = float_of_int !ops /. nf;
                access;
                read_burst = !burst_sum /. nf;
                summary =
                  Some
                    {
                      as_buffers = buffers;
                      as_branches = branches;
                      as_divergent_branches = List.length divergent;
                      as_divergent_ops =
                        List.fold_left
                          (fun acc b -> acc +. b.br_ops)
                          0. divergent;
                      as_stranded_lanes = stranded;
                      as_warp_size = warp_size;
                    };
              }
          with Static_blocked m -> Error m
      end
