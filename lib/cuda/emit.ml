open Gpu

let dialect =
  {
    Kir_c.emitter = "Cuda.Emit";
    qualifier = "__global__ void";
    param =
      (fun _ (p : Kir.param) ->
        match p.Kir.kind with
        | Kir.Scalar -> Printf.sprintf "int %s" p.Kir.pname
        | Kir.In_buffer -> Printf.sprintf "const int *%s" p.Kir.pname
        | Kir.Out_buffer -> Printf.sprintf "int *%s" p.Kir.pname);
    extra_params = [];
    param_sep = ", ";
    per_axis = true;
    linear =
      {
        Kir_c.global_id = Some "blockIdx.x * blockDim.x + threadIdx.x";
        suffix = "";
        var = "iGID";
      };
  }

let kernel ~grid k = Kir_c.kernel dialect ~grid k

(* 256 threads per block, shaped to the launch rank: the configuration
   the SAC backend derives from generator bounds.  Grids without
   per-axis ids launch 1-D over the linearised grid. *)
let launch_text _ (k : Kir.t) ~grid actuals =
  let grid =
    if Kir_c.uses_per_axis dialect (Ndarray.Shape.rank grid) then grid
    else [| Ndarray.Shape.size grid |]
  in
  let block =
    match Ndarray.Shape.rank grid with
    | 1 -> Runtime.dim3 256
    | 2 -> Runtime.dim3 ~y:8 32
    | _ -> Runtime.dim3 ~y:4 ~z:4 16
  in
  let blocks = Runtime.blocks_for ~grid ~block in
  Printf.sprintf
    "    {\n\
    \        dim3 block(%d, %d, %d);\n\
    \        dim3 grid(%d, %d, %d);\n\
    \        %s<<<grid, block>>>(%s);\n\
    \    }\n"
    block.x block.y block.z blocks.x blocks.y blocks.z k.Kir.kname
    (String.concat ", " (List.map snd actuals))

let host_api =
  {
    Kir_c.alloc =
      (fun ~dst len ->
        Printf.sprintf
          "    int *%s;\n    cudaMalloc((void **)&%s, %d * sizeof(int));\n" dst
          dst len);
    upload =
      (fun ~dst ~src len ->
        Printf.sprintf
          "    cudaMemcpyAsync(%s, %s, %d * sizeof(int), \
           cudaMemcpyHostToDevice);\n"
          dst src len);
    download =
      (fun ~dst ~src len ->
        Printf.sprintf
          "    cudaMemcpyAsync(%s, %s, %d * sizeof(int), \
           cudaMemcpyDeviceToHost);\n"
          dst src len);
    launch = launch_text;
    free = Printf.sprintf "    cudaFree(%s);\n";
  }

let program ~name ~kernels ~steps =
  let header =
    Printf.sprintf
      "/* %s.cu -- generated by the sac2cuda backend (simulated).\n\
      \ * One __global__ kernel per WITH-loop generator; data transfers\n\
      \ * correspond to the host2device/device2host instructions inserted\n\
      \ * around CUDA-WITH-loops. */\n\
       #include <cuda_runtime.h>\n\
       #include <stdio.h>\n\
       #include <stdlib.h>\n\n"
      name
  in
  Kir_c.host_program dialect host_api
    ~prologue:
      (Kir_c.translation_unit dialect ~header kernels ^ "int main(void)\n{\n")
    ~epilogue:"    cudaDeviceSynchronize();\n    return 0;\n}\n" steps
