(** SAC -> OpenCL: the paper's two GPU programming models from the same
    compiler.

    The paper maps SAC to CUDA and ArrayOL to OpenCL and notes that
    "despite the differences ... in the final GPU-specific targets,
    performance benefits of both approaches are comparable".  This
    module closes the square: compiled SAC plans are target-neutral
    ({!Sac_cuda.Plan.t} holds kernel IR), so the same plan can execute
    through the OpenCL runtime facade and be emitted as [.cl] +
    host [.cpp] + [Makefile] sources. *)

val run :
  ?host_mode:[ `Execute | `Estimate ] ->
  ?liveness:bool ->
  ?plane_tag:string ->
  Opencl.Runtime.context ->
  Sac_cuda.Plan.t ->
  args:(string * int Ndarray.Tensor.t) list ->
  Sac_cuda.Exec.outcome
(** Bit-exact with {!Sac_cuda.Exec.run} (property-tested); events land
    on the OpenCL context's timeline. *)

type sources = { cl : string; host : string; makefile : string }

val sources : name:string -> Sac_cuda.Plan.t -> sources
(** The generated translation units: the host steps of
    {!Sac_cuda.Emit_cu.host_steps} (the walk behind the CUDA source)
    printed as OpenCL host calls.  Host blocks of generic programs
    appear in the host program as portable C comments. *)
