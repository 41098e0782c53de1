open Gpu

let dialect =
  {
    Kir_c.emitter = "Opencl.Emit";
    qualifier = "__kernel void";
    param =
      (fun _ (p : Kir.param) ->
        match p.Kir.kind with
        | Kir.Scalar -> Printf.sprintf "const int %s" p.Kir.pname
        | Kir.In_buffer -> Printf.sprintf "__global const int *%s" p.Kir.pname
        | Kir.Out_buffer -> Printf.sprintf "__global int *%s" p.Kir.pname);
    extra_params = [];
    param_sep = ", ";
    per_axis = false;
    linear = { Kir_c.global_id = Some "get_global_id(0)"; suffix = ""; var = "iGID" };
  }

let kernel ~grid k = Kir_c.kernel dialect ~grid k

let cl_file ~name kernels =
  Kir_c.translation_unit dialect
    ~header:
      (Printf.sprintf
         "/* %s.cl -- generated OpenCL kernels (simulated device).  Tiler\n\
         \ * gather/scatter address arithmetic follows the\n\
         \ * origin/paving/fitting formulae. */\n\n"
         name)
    kernels

let launch_text n (k : Kir.t) ~grid actuals =
  let kv = Printf.sprintf "k%d" n in
  let buf = Stdlib.Buffer.create 256 in
  Printf.bprintf buf "    cl_kernel %s = clCreateKernel(program, \"%s\", NULL);\n"
    kv k.Kir.kname;
  List.iteri
    (fun i ((p : Kir.param), actual) ->
      Printf.bprintf buf "    clSetKernelArg(%s, %d, sizeof(%s), &%s);\n" kv i
        (if p.Kir.kind = Kir.Scalar then "int" else "cl_mem")
        actual)
    actuals;
  Printf.bprintf buf
    "    { size_t gws = %d;\n\
    \      clEnqueueNDRangeKernel(queue, %s, 1, NULL, &gws, NULL, 0, NULL, \
     NULL); }\n"
    (Ndarray.Shape.size grid) kv;
  Stdlib.Buffer.contents buf

let host_api =
  {
    Kir_c.alloc =
      (fun ~dst len ->
        Printf.sprintf
          "    cl_mem %s = clCreateBuffer(context, CL_MEM_READ_WRITE, %d * \
           sizeof(int), NULL, NULL);\n"
          dst len);
    upload =
      (fun ~dst ~src len ->
        Printf.sprintf
          "    clEnqueueWriteBuffer(queue, %s, CL_FALSE, 0, %d * sizeof(int), \
           %s, 0, NULL, NULL);\n"
          dst len src);
    download =
      (fun ~dst ~src len ->
        Printf.sprintf
          "    clEnqueueReadBuffer(queue, %s, CL_TRUE, 0, %d * sizeof(int), \
           %s, 0, NULL, NULL);\n"
          src len dst);
    launch = launch_text;
    free = Printf.sprintf "    clReleaseMemObject(%s);\n";
  }

let host_program ~name ~steps =
  Kir_c.host_program dialect host_api
    ~prologue:
      (Printf.sprintf
         "/* %s.cpp -- generated host program (Gaspard2 OpenCL chain). */\n\
          #include <CL/cl.h>\n\
          #include <cstdio>\n\
          #include <cstdlib>\n\n\
          int main(void)\n\
          {\n\
         \    cl_platform_id platform;\n\
         \    cl_device_id device;\n\
         \    clGetPlatformIDs(1, &platform, NULL);\n\
         \    clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU, 1, &device, NULL);\n\
         \    cl_context context = clCreateContext(NULL, 1, &device, NULL, \
          NULL, NULL);\n\
         \    cl_command_queue queue = clCreateCommandQueue(context, device, \
          0, NULL);\n\
         \    cl_program program = build_program_from_file(context, \
          \"%s.cl\");\n\n"
         name name)
    ~epilogue:"    clFinish(queue);\n    return 0;\n}\n" steps

let makefile ~name =
  Printf.sprintf
    "# Makefile -- generated by the Gaspard2 OpenCL chain (simulated)\n\
     CXX = g++\n\
     CXXFLAGS = -O3\n\
     LDLIBS = -lOpenCL\n\n\
     %s: %s.cpp\n\
     \t$(CXX) $(CXXFLAGS) -o $@ $< $(LDLIBS)\n\n\
     clean:\n\
     \trm -f %s\n"
    name name name
