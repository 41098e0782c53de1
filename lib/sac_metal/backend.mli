(** SAC -> Metal: the same compiled plans on a third GPU programming
    model.

    Compiled SAC plans are target-neutral ({!Sac_cuda.Plan.t} holds
    kernel IR), so the same plan that runs through the CUDA and OpenCL
    facades also executes through the Metal runtime facade — bit-exact
    by construction, since all three share one functional evaluator —
    and prints as a [.metal] translation unit plus metal-cpp host
    program and Makefile. *)

val run :
  ?host_mode:[ `Execute | `Estimate ] ->
  ?liveness:bool ->
  ?plane_tag:string ->
  Metal.Runtime.device ->
  Sac_cuda.Plan.t ->
  args:(string * int Ndarray.Tensor.t) list ->
  Sac_cuda.Exec.outcome
(** Bit-exact with {!Sac_cuda.Exec.run} and the OpenCL backend
    (asserted in runtest); events land on the Metal device's
    timeline. *)

type sources = { metal : string; host : string; makefile : string }

val sources : name:string -> Sac_cuda.Plan.t -> sources
(** The generated translation units: the host steps of
    {!Sac_cuda.Emit_cu.host_steps} (the walk behind the CUDA and OpenCL
    sources) printed as metal-cpp host calls.  Host blocks of generic
    programs appear in the host program as portable C comments. *)
