(** The SAC optimisation pipeline.

    [parse] -> [inline] -> ([simplify] -> [WLF])* -> [DCE], i.e. the
    high-level optimisations the paper's Section VII applies before
    handing the intermediate program to the CUDA backend. *)

type report = {
  wlf_rounds : int;  (** successful folds *)
  withloops_before : int;
  withloops_after : int;
}

val optimize : Ast.program -> entry:string -> Ast.fundef * report
(** Runs {!Check.program_exn} first; raises [Ast.Sac_error] listing
    every static issue on ill-formed input.  Names the passes generate
    come from a {!Names.with_supply} of this call, so they do not depend
    on earlier compiles. *)

val optimize_source : string -> entry:string -> Ast.fundef * report
(** Parse then {!optimize}. *)
