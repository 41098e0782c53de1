(** The CUDA backend proper: optimised SAC function -> {!Plan.t}.

    Follows Section VII:
    - with-loops whose generators scalarise become CUDA-WITH-loops
      (one kernel per generator, after the Figure 8 generator
      splitting);
    - for-loop nests and any other statement stay on the host;
    - transfers are *not* explicit in the plan: they materialise during
      execution / emission from host-device residency, which is how the
      [host2device]/[device2host] insertion behaves. *)

exception Compile_error of string

val plan :
  ?label_of:(string -> string) ->
  ?split_generators:bool ->
  ?opt:Optimizer.Mode.t ->
  ?device:Gpu.Device.t ->
  Sac.Ast.fundef ->
  Plan.t
(** [plan fd] compiles an inlined, optimised [main].  [label_of] maps a
    with-loop target variable to its profiling label (default: the
    sanitised variable name).  [split_generators] applies the Figure 8
    normalisation (default [true]; the ablation benchmark turns it
    off).  [opt] selects the plan optimisation mode (default
    {!Optimizer.Mode.default}, i.e. the process-wide [--opt] setting);
    [device] is the cost-model target for [Auto] tuning.  Names that
    scalarisation generates come from a {!Sac.Names.with_supply} of this
    call, numbered above the suffixes [fd] already binds. *)

val plan_of_source :
  ?label_of:(string -> string) ->
  ?split_generators:bool ->
  ?opt:Optimizer.Mode.t ->
  ?device:Gpu.Device.t ->
  string ->
  entry:string ->
  Plan.t * Sac.Pipeline.report
(** Parse, optimise and {!plan}. *)
