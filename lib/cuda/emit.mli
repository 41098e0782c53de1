(** CUDA C source emission from kernel IR.

    The SAC compiler's CUDA backend (Section VII) emits one [__global__]
    function per WITH-loop generator plus a host program carrying the
    [host2device]/[device2host] transfers and kernel invocations.  This
    module is the CUDA dialect of {!Gpu.Kir_c} and the CUDA runtime
    text of its host steps (the simulator executes the same IR; the
    text is the artefact a user would inspect or port to a real
    device). *)

val kernel : grid:Ndarray.Shape.t -> Gpu.Kir.t -> string
(** One [__global__] function.  Grids of rank 1–3 map their axes to
    [blockIdx]/[threadIdx] x, y, z with a per-axis guard
    ([if (gid0 >= extent || ...) return;]); every other rank (0 or
    above 3) uses one linearised, guarded id decomposed with [%]/[/]
    chains, as the OpenCL and Metal kernels do. *)

val program :
  name:string ->
  kernels:(Gpu.Kir.t * Ndarray.Shape.t) list ->
  steps:Gpu.Kir_c.host_step list ->
  string
(** A full [.cu] translation unit: kernels followed by a [main] that
    performs [steps] with CUDA runtime calls.  Launches of per-axis
    grids use 256-thread blocks shaped to the rank; launches of
    linearised grids use [block(256, 1, 1)] over the grid size. *)
