(** Execution of a generated program on one OpenCL context: the
    schedule walk {!Chain.run} wraps in its [mde.run] span, and the
    cost runner of {!Autotune} (which runs it in a timing-only
    context, under its own span). *)

exception Run_error of string

val run :
  label_of:(string -> string) ->
  liveness:bool ->
  Opencl.Runtime.context ->
  Codegen.generated ->
  inputs:(string * int Ndarray.Tensor.t) list ->
  (string * int Ndarray.Tensor.t) list
(** Boundary inputs are written to device buffers, kernels run in
    schedule order (each launch labelled [label_of task_name]),
    boundary outputs are read back.  With [liveness], each buffer is
    released after the last schedule level that reads it.  Raises
    {!Run_error} on a missing or misshapen input, an unconnected port
    or a program that fails to build. *)
