(** Source emission for compiled plans.

    One walk over a plan ({!host_steps}) derives the host program every
    target prints: device allocations and [host2device] /
    [device2host] transfers placed by the same residency rules as
    {!Exec}, one launch per generator kernel, host blocks as portable C
    loop nests, and a release for every device buffer still resident
    at the end.  {!source} prints it as the [.cu] translation unit a
    user of the real SAC compiler would inspect; the OpenCL and Metal
    backends print the same steps through their own host APIs. *)

val host_steps :
  Plan.t -> (Gpu.Kir.t * Ndarray.Shape.t) list * Gpu.Kir_c.host_step list
(** The plan's kernels with their grids, in launch order, and its host
    steps. *)

val source : name:string -> Plan.t -> string
