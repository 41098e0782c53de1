(** The C-family printer behind the CUDA, OpenCL and Metal emitters.

    All three targets print the same {!Kir} statements and expressions
    with the same C syntax; a {!dialect} carries the text that really
    differs between them (kernel qualifier, parameter declarations,
    how a work-item finds its grid point).  Host programs are a list
    of {!host_step}s, printed through a per-target {!host_api}. *)

(** A linearised work-item id: the grid is launched 1-D, the id
    [iGID] is guarded by the grid size and decomposed into the
    [gidN] of each dimension with [%]/[/] chains. *)
type linear_id = {
  global_id : string option;
      (** expression initialising [int iGID]; [None] when [iGID] is a
          kernel parameter *)
  suffix : string;  (** literal suffix of the guard bound (["u"]) *)
  var : string;
      (** signed variable the ids decompose; any name other than
          ["iGID"] is declared as [int(iGID)] after the guard, renamed
          [var_N] (the first free [N]) when the kernel binds [var] *)
}

type dialect = {
  emitter : string;  (** prefix of [Invalid_argument] messages *)
  qualifier : string;  (** e.g. ["__kernel void"] *)
  param : int -> Kir.param -> string;
      (** declaration of the parameter at this position *)
  extra_params : string list;  (** appended after the kernel's own *)
  param_sep : string;
  per_axis : bool;
      (** grids of rank 1–3 read one [blockIdx]/[threadIdx] id per axis
          and guard each axis (CUDA); every other grid uses [linear] *)
  linear : linear_id;
}

val expr_text : Kir.expr -> string
(** One expression in the shared C syntax (also used to name branch
    sites in findings). *)

val uses_per_axis : dialect -> int -> bool
(** Whether a grid of this rank gets per-axis ids under the dialect
    (otherwise the launch is 1-D over the linearised grid). *)

val kernel : dialect -> grid:Ndarray.Shape.t -> Kir.t -> string
(** One kernel function.  The grid supplies the literal bounds of the
    guard, as the SAC backend derives kernel configurations "from the
    generator bounds".  Raises [Invalid_argument] when the grid rank
    does not match the kernel's. *)

val translation_unit :
  dialect -> header:string -> (Kir.t * Ndarray.Shape.t) list -> string
(** [header] followed by every kernel, each followed by a blank
    line. *)

(** Host-side steps of a generated program, in order. *)
type host_step =
  | Comment of string
  | Alloc of { dst : string; len : int }
  | Upload of { dst : string; src : string; len : int }
  | Download of { dst : string; src : string; len : int }
  | Launch of {
      kernel : Kir.t;
      grid : Ndarray.Shape.t;
      args : (string * string) list;  (** parameter -> host identifier *)
    }
  | Host_code of string  (** verbatim host C (e.g. a host-side tiler loop) *)
  | Free of { name : string }

(** A target's host-API text for the steps that touch the device; each
    returns complete, indented lines. *)
type host_api = {
  alloc : dst:string -> int -> string;
  upload : dst:string -> src:string -> int -> string;
  download : dst:string -> src:string -> int -> string;
  launch :
    int -> Kir.t -> grid:Ndarray.Shape.t -> (Kir.param * string) list -> string;
      (** 1-based launch number, kernel, grid and each parameter with
          its actual, in parameter order *)
  free : string -> string;
}

val host_program :
  dialect ->
  host_api ->
  prologue:string ->
  epilogue:string ->
  host_step list ->
  string
(** [prologue], the steps in order, [epilogue].  Comments print as
    [/* ... */] lines and host code verbatim.  Raises [Invalid_argument]
    when a launch lacks an actual for a kernel parameter. *)
