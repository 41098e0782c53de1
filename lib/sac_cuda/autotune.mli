(** Cost-guided plan autotuning for the SAC -> CUDA pipeline
    ([--opt auto]): the SAC route of {!Optimizer.Tuner}, which owns the
    move repertoire and the cached tune driver.

    This route supplies the {!Fuse_plan} pair candidates, one rewrite
    site per [Device_withloop] item (tile moves only while the item's
    grid undersaturates the device), label-stripped plan digests, and
    the cost: the analytic device model in a timing-only context.
    Every rewritten item re-verifies through the [lib/analysis] gates
    before it is eligible.  Winners are memoised process-wide per
    (pipeline, shape, device, plan digest) as rule paths, replayed on
    each caller's own plan. *)

type state = {
  plan : Plan.t;
  fstats : Gpu.Fuse.stats;  (** fusion savings accumulated so far *)
  undo : state option;  (** state before the last rewrite *)
}

val moves : device:Gpu.Device.t -> state -> state Optimizer.Search.candidate list
(** All rewrite moves applicable to [state], for {!Optimizer.Search}.
    Exposed for the per-rule unit tests. *)

val modelled_us : ?device:Gpu.Device.t -> Plan.t -> float
(** Modelled single-frame time (device + host) of a plan under the
    analytic cost model, via a timing-only runtime on synthetic
    arguments.  Deterministic; this is both the search objective and
    the number the autotune ablation reports. *)

val tune : ?device:Gpu.Device.t -> Plan.t -> Plan.t * Gpu.Fuse.stats * string list
(** [tune p] returns the tuned plan, the fusion savings it embodies and
    the winning rule path (empty when the compiled plan is already
    best).  Consults the process-wide tuned-plan cache first; on a miss
    the search runs once and its winner is memoised.  Default device:
    the paper's GTX480 (matching {!Cuda.Runtime.init}). *)
