(** Kernel IR: the common target of both compiler pipelines.

    The SAC->CUDA backend and the Gaspard2->OpenCL template chain both
    produce kernels in this small C-like IR.  A kernel is a scalar
    program executed once per point of an n-dimensional grid; it reads
    and writes flat device buffers through linear addresses, exactly
    like the generated code in the paper's Figure 11.

    The traversals below ({!map_expr}, {!map_stmts}, {!fold_expr},
    {!fold_stmts}) are the one place that knows the IR's shape: the
    rewrites and analyses of other layers (the optimizer's grid rules,
    producer/consumer fusion, the ArrayOL chain's port renaming, affine
    split detection) are hooks over them, and {!apply_binop} is the one
    operator table.  Only walks that carry semantics of their own keep
    a hand-written recursion — {!validate}'s scoping, the evaluators
    below, and the abstract interpreters of the analysis layer:
    - {!compile} turns a kernel into fast OCaml closures for functional
      (bit-exact) execution on the simulator;
    - {!profile_threads} interprets sampled threads with instrumented
      reads/writes to drive the analytic timing model, and
      {!static_cost} derives the same profile without executing;
    - the {!Kir_c} printer renders it as CUDA C, OpenCL C and Metal
      Shading Language source text, one dialect record per target. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** C semantics: truncation towards zero *)
  | Mod  (** C semantics: sign follows the dividend *)
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
  | Gid of int  (** global work-item id along grid dimension [d] *)
  | Param of string  (** scalar kernel argument *)
  | Var of string  (** let- or loop-bound variable *)
  | Read of string * expr  (** buffer argument, linear index *)
  | Bin of binop * expr * expr
  | Select of expr * expr * expr  (** [Select (c, a, b)] = [c ? a : b] *)

type stmt =
  | Let of string * expr
  | Store of string * expr * expr  (** buffer, linear index, value *)
  | If of expr * stmt list * stmt list
  | For of { var : string; lo : expr; hi : expr; body : stmt list }
      (** [for (var = lo; var < hi; var++)] *)

type param_kind = Scalar | In_buffer | Out_buffer

type param = { pname : string; kind : param_kind }

type t = {
  kname : string;
  params : param list;
  grid_rank : int;
  body : stmt list;
}

type arg = Scalar_arg of int | Buffer_arg of Buffer.t

exception Kernel_error of string
(** Raised during execution on division/modulo by zero or out-of-bounds
    buffer access (the latter only under interpretation). *)

val apply_binop : binop -> int -> int -> int
(** The operator semantics shared by every evaluator: 63-bit OCaml
    integers, comparisons and [And]/[Or] yield 0 or 1.  Raises
    [Kernel_error "division by zero"] or [Kernel_error "modulo by
    zero"] on a zero divisor. *)

(** {1 Traversals} *)

val map_expr : (expr -> expr option) -> expr -> expr
(** Top-down rewrite: the hook sees each node before its children; [Some
    e'] replaces the node without descending into it (so [e'] is not
    rewritten again), [None] keeps the constructor and rewrites the
    children. *)

val map_stmts :
  bind:(string -> string) -> (expr -> expr option) -> stmt list -> stmt list
(** Rewrite every expression of the statements with {!map_expr}, and
    rename each [Let] and [For] binder through [bind].  Uses of the
    binders are [Var] nodes the hook must rename itself; buffer names
    and [Param]s are left alone. *)

val fold_expr : ('a -> expr -> 'a) -> 'a -> expr -> 'a
(** Post-order fold: children left to right (a [Read]'s index; [Bin]'s
    operands; [Select]'s condition, then arm, else arm), then the node
    itself. *)

val fold_stmts : ('a -> expr -> 'a) -> 'a -> stmt list -> 'a
(** {!fold_expr} over every expression of the statements in program
    order: a [Store]'s index before its value, an [If]'s condition
    before its branches, a [For]'s bounds before its body. *)

val validate : t -> (unit, string) result
(** Static checks: identifiers bound before use, unique parameter
    names, reads only from buffers, stores only to [Out_buffer]s, [Gid]
    dimensions below [grid_rank], non-empty name. *)

val check_args : t -> (string * arg) list -> (unit, string) result
(** Arguments match the parameter list in names and kinds. *)

type prepared
(** A kernel compiled to closures but not yet bound to arguments: the
    expensive half of {!compile}, reusable across launches.  Prepared
    kernels are immutable and safe to share between domains. *)

type compiled

val prepare : t -> prepared
(** Resolve variables to scratch slots and parameters to environment
    positions, building the closure tree.  Raises [Invalid_argument]
    if {!validate} fails. *)

val shared_prepare : t -> prepared
(** [prepare] through a process-wide memo table (thread-safe), so
    short-lived contexts still compile each distinct kernel once. *)

val shared_prepare_memo : t -> prepared * bool
(** Like {!shared_prepare}, also reporting whether the kernel was
    already in the memo table — callers keeping compile-hit counters
    honest across short-lived contexts need the distinction. *)

val bind : prepared -> args:(string * arg) list -> compiled
(** Pack the actual argument values into the prepared kernel — a few
    array writes per launch.  Raises [Invalid_argument] if
    {!check_args} fails. *)

val compile : t -> args:(string * arg) list -> compiled
(** [bind (prepare t) ~args]. *)

val cost_data_independent : t -> bool
(** True when a thread's address trace and operation count cannot
    depend on buffer contents (no value loaded from a buffer flows
    into an If/Select condition, For bound, Read/Store index, or
    Div/Mod divisor), so a {!profile_threads} result is valid for any
    buffer data of the same lengths and may be cached. *)

val run_thread : compiled -> Ndarray.Index.t -> unit
(** Execute one work-item.  Buffer stores land in the bound
    {!Buffer.t}s. *)

val run_grid : ?domains:int -> compiled -> Ndarray.Shape.t -> unit
(** Execute every work-item of the grid, row-major.  With [domains > 1]
    the linearised grid is chunked across the persistent {!Pool} (a
    [domains] of 0 or less means the pool's configured default);
    kernels produced by the two backends write disjoint output elements
    per thread, so this is race-free and bit-identical to sequential
    execution. *)

(** Per-buffer static access description, derived by {!static_cost}
    from sampled warps of 32 lanes.  Segment quantities model 32-word
    (128-byte) coalesced transactions. *)
type buffer_access = {
  ba_buffer : string;
  ba_reads : float;  (** mean reads per sampled thread on this buffer *)
  ba_class : [ `Row | `Column | `Gather ];
  ba_burst : float;  (** mean per-thread consecutive-address run length *)
  ba_efficiency : float;
      (** cache-amortised warp coalescing efficiency: distinct words
          the warp consumes over the words of the distinct segments it
          fetches, in [0, 1] — a segment fetched at one transaction
          step is assumed resident for the warp's later steps, so
          strided-burst row walks amortise to ~1.0 while a transposed
          walk wastes 31/32 of every line *)
  ba_overlap : float;
      (** fraction of warp read events re-fetching an address some lane
          of the warp already read — the reuse a scratchpad stage would
          absorb *)
  ba_bank_conflict : int;
      (** modelled shared-memory conflict degree if the warp's loads
          were staged: max lanes hitting one of 32 banks in a step *)
}

(** Per-[If] divergence summary. *)
type branch_summary = {
  br_cond : expr;  (** the branch condition *)
  br_divergent : bool;
      (** some sampled warp's lanes took different decision sequences *)
  br_ops : float;  (** mean ops per thread inside the branch region *)
  br_stores : float;  (** mean stores per thread inside the region *)
}

(** Warp-level memory-behaviour summary of a launch, derived without
    executing the kernel. *)
type access_summary = {
  as_buffers : buffer_access list;  (** in kernel-parameter order *)
  as_branches : branch_summary list;  (** in program order *)
  as_divergent_branches : int;
  as_divergent_ops : float;
      (** mean per-thread ops inside divergent regions — lanes of a
          mixed warp serialise these *)
  as_stranded_lanes : int;
      (** idle lanes of the last warp: (32 - total mod 32) mod 32 *)
  as_warp_size : int;  (** 32 *)
}

(** Per-thread cost profile, averaged over sampled threads. *)
type cost = {
  reads_per_thread : float;  (** global-memory loads *)
  writes_per_thread : float;  (** global-memory stores *)
  ops_per_thread : float;  (** arithmetic/logic operations *)
  access : [ `Row | `Column | `Gather ];
      (** dominant read-address pattern: consecutive addresses within a
          thread ([`Row]), large constant stride ([`Column]), or
          irregular ([`Gather]) *)
  read_burst : float;
      (** mean length of consecutive-address runs in the read trace; a
          thread reading an 11-point row pattern has burst 11.  Long
          per-thread bursts reduce cross-thread coalescing, which the
          performance model charges for [`Row] kernels. *)
  summary : access_summary option;
      (** [Some] when derived by {!static_cost}; [None] from
          {!profile_threads} *)
}

val profile_threads : t -> args:(string * arg) list -> grid:Ndarray.Shape.t -> cost
(** Interpret up to 64 threads spread across the grid with instrumented
    memory accesses.  Thread bodies of the generated kernels are
    control-uniform in all but boundary threads, so the sample mean is
    an accurate per-thread cost. *)

val static_cost :
  ?scalars:(string * int) list ->
  t ->
  grid:Ndarray.Shape.t ->
  (cost, string) result
(** Derive the cost profile without executing the kernel: buffer loads
    evaluate to an opaque value and every address, branch condition and
    loop bound must still reduce to a concrete integer.  Succeeds for
    exactly the kernels whose addresses and control flow are data-free
    (a superset check of {!cost_data_independent} runs first), and then
    agrees field-for-field with {!profile_threads} on the same launch —
    it samples the identical thread set with identical counting.  The
    result additionally carries an {!access_summary} with warp-level
    coalescing efficiency, read overlap, modelled bank conflicts and a
    divergence map, derived from three densely sampled warps (first,
    middle, last).  [scalars] supplies values for scalar parameters the
    body mentions. *)

val classify_addrs : int list -> [ `Row | `Column | `Gather ]
(** Classify a single thread's read-address trace (most recent first,
    as accumulated during interpretation) by median gap between
    consecutively issued reads. *)

val burst_of_addrs : int list -> float
(** Mean length of maximal consecutive-address runs of a read trace
    (most recent first). *)
