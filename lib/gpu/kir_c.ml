type linear_id = { global_id : string option; suffix : string; var : string }

type dialect = {
  emitter : string;
  qualifier : string;
  param : int -> Kir.param -> string;
  extra_params : string list;
  param_sep : string;
  per_axis : bool;
  linear : linear_id;
}

let binop_is_call = function Kir.Min | Kir.Max -> true | _ -> false

let binop_text = function
  | Kir.Add -> "+"
  | Kir.Sub -> "-"
  | Kir.Mul -> "*"
  | Kir.Div -> "/"
  | Kir.Mod -> "%"
  | Kir.Min -> "min"
  | Kir.Max -> "max"
  | Kir.Lt -> "<"
  | Kir.Le -> "<="
  | Kir.Gt -> ">"
  | Kir.Ge -> ">="
  | Kir.Eq -> "=="
  | Kir.Ne -> "!="
  | Kir.And -> "&&"
  | Kir.Or -> "||"

let rec expr buf = function
  | Kir.Int n ->
      if n < 0 then Printf.bprintf buf "(%d)" n else Printf.bprintf buf "%d" n
  | Kir.Gid d -> Printf.bprintf buf "gid%d" d
  | Kir.Param p -> Stdlib.Buffer.add_string buf p
  | Kir.Var v -> Stdlib.Buffer.add_string buf v
  | Kir.Read (b, i) ->
      Printf.bprintf buf "%s[" b;
      expr buf i;
      Stdlib.Buffer.add_char buf ']'
  | Kir.Bin (op, a, b) when binop_is_call op ->
      Printf.bprintf buf "%s(" (binop_text op);
      expr buf a;
      Stdlib.Buffer.add_string buf ", ";
      expr buf b;
      Stdlib.Buffer.add_char buf ')'
  | Kir.Bin (op, a, b) ->
      Stdlib.Buffer.add_char buf '(';
      expr buf a;
      Printf.bprintf buf " %s " (binop_text op);
      expr buf b;
      Stdlib.Buffer.add_char buf ')'
  | Kir.Select (c, a, b) ->
      Stdlib.Buffer.add_char buf '(';
      expr buf c;
      Stdlib.Buffer.add_string buf " ? ";
      expr buf a;
      Stdlib.Buffer.add_string buf " : ";
      expr buf b;
      Stdlib.Buffer.add_char buf ')'

let expr_text e =
  let buf = Stdlib.Buffer.create 64 in
  expr buf e;
  Stdlib.Buffer.contents buf

let rec stmt buf indent s =
  let pad = String.make indent ' ' in
  match s with
  | Kir.Let (v, e) ->
      Printf.bprintf buf "%sint %s = " pad v;
      expr buf e;
      Stdlib.Buffer.add_string buf ";\n"
  | Kir.Store (b, i, v) ->
      Printf.bprintf buf "%s%s[" pad b;
      expr buf i;
      Stdlib.Buffer.add_string buf "] = ";
      expr buf v;
      Stdlib.Buffer.add_string buf ";\n"
  | Kir.If (c, t, e) ->
      Printf.bprintf buf "%sif (" pad;
      expr buf c;
      Stdlib.Buffer.add_string buf ") {\n";
      List.iter (stmt buf (indent + 4)) t;
      if e <> [] then begin
        Printf.bprintf buf "%s} else {\n" pad;
        List.iter (stmt buf (indent + 4)) e
      end;
      Printf.bprintf buf "%s}\n" pad
  | Kir.For { var; lo; hi; body } ->
      Printf.bprintf buf "%sfor (int %s = " pad var;
      expr buf lo;
      Printf.bprintf buf "; %s < " var;
      expr buf hi;
      Printf.bprintf buf "; %s++) {\n" var;
      List.iter (stmt buf (indent + 4)) body;
      Printf.bprintf buf "%s}\n" pad

let uses_per_axis d rank = d.per_axis && rank >= 1 && rank <= 3

(* Row-major grids: dimension (rank-1) is the fastest-varying and maps
   to CUDA x, (rank-2) to y, (rank-3) to z. *)
let per_axis_ids buf grid =
  let rank = Ndarray.Shape.rank grid in
  for d = 0 to rank - 1 do
    let a = [| "x"; "y"; "z" |].(rank - 1 - d) in
    Printf.bprintf buf
      "    int gid%d = blockIdx.%s * blockDim.%s + threadIdx.%s;\n" d a a a
  done;
  let guards =
    List.init rank (fun d -> Printf.sprintf "gid%d >= %d" d grid.(d))
  in
  Printf.bprintf buf "    if (%s) return;\n" (String.concat " || " guards)

(* [base] when no parameter, [Let] or [For] of the kernel is named so,
   else the first free [base_N]: a declared id must not redeclare one
   of the kernel's own names. *)
let fresh_name (k : Kir.t) base =
  let bound = Hashtbl.create 8 in
  let bind x =
    Hashtbl.replace bound x ();
    x
  in
  List.iter (fun (p : Kir.param) -> ignore (bind p.Kir.pname)) k.Kir.params;
  ignore (Kir.map_stmts ~bind (fun _ -> None) k.Kir.body);
  let rec free n =
    let v = if n = 0 then base else Printf.sprintf "%s_%d" base n in
    if Hashtbl.mem bound v then free (n + 1) else v
  in
  free 0

(* Work-item ids are linearised and decomposed with %-and-/ chains, as
   in the paper's Figure 11 ("tlIter[0]=iGID%%1080; ..."). *)
let linear_ids buf l grid k =
  Option.iter (Printf.bprintf buf "    int iGID = %s;\n") l.global_id;
  Printf.bprintf buf "    if (iGID >= %d%s) return;\n"
    (Ndarray.Shape.size grid) l.suffix;
  let var = if l.var = "iGID" then l.var else fresh_name k l.var in
  if var <> "iGID" then Printf.bprintf buf "    int %s = int(iGID);\n" var;
  let stride = ref 1 in
  for d = Ndarray.Shape.rank grid - 1 downto 0 do
    if !stride = 1 then
      Printf.bprintf buf "    int gid%d = %s %% %d;\n" d var grid.(d)
    else if d = 0 then
      Printf.bprintf buf "    int gid%d = %s / %d;\n" d var !stride
    else
      Printf.bprintf buf "    int gid%d = (%s / %d) %% %d;\n" d var !stride
        grid.(d);
    stride := !stride * grid.(d)
  done

let kernel d ~grid (k : Kir.t) =
  let rank = Ndarray.Shape.rank grid in
  if rank <> k.Kir.grid_rank then invalid_arg (d.emitter ^ ".kernel: grid rank");
  let buf = Stdlib.Buffer.create 512 in
  let params = List.mapi d.param k.Kir.params @ d.extra_params in
  Printf.bprintf buf "%s %s(%s)\n{\n" d.qualifier k.Kir.kname
    (String.concat d.param_sep params);
  if uses_per_axis d rank then per_axis_ids buf grid
  else linear_ids buf d.linear grid k;
  List.iter (stmt buf 4) k.Kir.body;
  Stdlib.Buffer.add_string buf "}\n";
  Stdlib.Buffer.contents buf

let translation_unit d ~header kernels =
  let buf = Stdlib.Buffer.create 4096 in
  Stdlib.Buffer.add_string buf header;
  List.iter
    (fun (k, grid) ->
      Stdlib.Buffer.add_string buf (kernel d ~grid k);
      Stdlib.Buffer.add_char buf '\n')
    kernels;
  Stdlib.Buffer.contents buf

type host_step =
  | Comment of string
  | Alloc of { dst : string; len : int }
  | Upload of { dst : string; src : string; len : int }
  | Download of { dst : string; src : string; len : int }
  | Launch of {
      kernel : Kir.t;
      grid : Ndarray.Shape.t;
      args : (string * string) list;
    }
  | Host_code of string
  | Free of { name : string }

type host_api = {
  alloc : dst:string -> int -> string;
  upload : dst:string -> src:string -> int -> string;
  download : dst:string -> src:string -> int -> string;
  launch :
    int -> Kir.t -> grid:Ndarray.Shape.t -> (Kir.param * string) list -> string;
  free : string -> string;
}

let host_program d api ~prologue ~epilogue steps =
  let buf = Stdlib.Buffer.create 4096 in
  Stdlib.Buffer.add_string buf prologue;
  let launches = ref 0 in
  List.iter
    (fun step ->
      Stdlib.Buffer.add_string buf
        (match step with
        | Comment c -> Printf.sprintf "    /* %s */\n" c
        | Alloc { dst; len } -> api.alloc ~dst len
        | Upload { dst; src; len } -> api.upload ~dst ~src len
        | Download { dst; src; len } -> api.download ~dst ~src len
        | Launch { kernel; grid; args } ->
            incr launches;
            let actual (p : Kir.param) =
              match List.assoc_opt p.Kir.pname args with
              | Some a -> (p, a)
              | None ->
                  invalid_arg
                    (Printf.sprintf "%s: missing actual for %s" d.emitter
                       p.Kir.pname)
            in
            api.launch !launches kernel ~grid
              (List.map actual kernel.Kir.params)
        | Host_code c -> c ^ "\n"
        | Free { name } -> api.free name))
    steps;
  Stdlib.Buffer.add_string buf epilogue;
  Stdlib.Buffer.contents buf
