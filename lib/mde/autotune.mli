(** Cost-guided autotuning for the ArrayOL -> OpenCL chain
    ([--opt auto]): the Gaspard2 route of {!Optimizer.Tuner}, which owns
    the move repertoire and the cached tune driver.

    This route supplies the {!Fuse_chain.candidates}, one rewrite site
    per kernel task (tile moves always offered), and the cost:
    {!Exec.run}, the walk {!Chain.run} executes, in a timing-only OpenCL
    context on synthetic inputs.  Every rewritten task re-verifies
    through {!Verify.check} before it is eligible; winners are memoised
    as rule paths in the process-wide {!Optimizer.Cache}. *)

type state = {
  gen : Codegen.generated;
  fstats : Gpu.Fuse.stats;  (** fusion savings accumulated so far *)
  undo : state option;  (** state before the last rewrite *)
}

val moves : state -> state Optimizer.Search.candidate list
(** All rewrite moves applicable to [state] (for the unit tests). *)

val modelled_us : ?device:Gpu.Device.t -> Codegen.generated -> float
(** Modelled single-run device time of the generated program: uploads,
    the scheduled kernel launches and output read-backs through a
    timing-only context ({!Exec.run} without liveness, as {!Chain.run}
    runs it by default), so it equals what {!Chain.run} models for the
    same program.  It is both the search objective and the autotune
    ablation metric. *)

val tune :
  ?device:Gpu.Device.t ->
  Codegen.generated ->
  Codegen.generated * Gpu.Fuse.stats * string list
(** [tune g] returns the tuned program (sources re-rendered when any
    rewrite applied), its fusion savings and the winning rule path.
    Consults the tuned-plan cache first, searching only on a miss.  The
    cost model targets [device], by default the GTX480 (as
    {!Opencl.Runtime.create_context}); the cache keys a default-device
    tune as ["default"]. *)
