open Gpu

(* Buffer bindings follow parameter order, scalars included: the host
   side binds buffers with setBuffer and scalars with setBytes at the
   same indices, so the two listings stay in sync by construction. *)
let dialect =
  {
    Kir_c.emitter = "Metal.Emit";
    qualifier = "kernel void";
    param =
      (fun i (p : Kir.param) ->
        match p.Kir.kind with
        | Kir.Scalar ->
            Printf.sprintf "constant int &%s [[buffer(%d)]]" p.Kir.pname i
        | Kir.In_buffer ->
            Printf.sprintf "const device int *%s [[buffer(%d)]]" p.Kir.pname i
        | Kir.Out_buffer ->
            Printf.sprintf "device int *%s [[buffer(%d)]]" p.Kir.pname i);
    extra_params = [ "uint iGID [[thread_position_in_grid]]" ];
    param_sep = ",\n                 ";
    per_axis = false;
    linear = { Kir_c.global_id = None; suffix = "u"; var = "lin" };
  }

let kernel ~grid k = Kir_c.kernel dialect ~grid k

let metal_file ~name kernels =
  Kir_c.translation_unit dialect
    ~header:
      (Printf.sprintf
         "/* %s.metal -- generated Metal compute kernels (simulated device). \
          */\n\
          #include <metal_stdlib>\n\
          using namespace metal;\n\n"
         name)
    kernels

let launch_text n (k : Kir.t) ~grid actuals =
  let buf = Stdlib.Buffer.create 512 in
  Printf.bprintf buf
    "    MTL::Function *f%d = library->newFunction(\n\
    \        NS::String::string(\"%s\", NS::UTF8StringEncoding));\n\
    \    MTL::ComputePipelineState *p%d = \
     device->newComputePipelineState(f%d, &err);\n\
    \    MTL::CommandBuffer *cb%d = queue->commandBuffer();\n\
    \    MTL::ComputeCommandEncoder *enc%d = cb%d->computeCommandEncoder();\n\
    \    enc%d->setComputePipelineState(p%d);\n"
    n k.Kir.kname n n n n n n n;
  List.iteri
    (fun i ((p : Kir.param), actual) ->
      if p.Kir.kind = Kir.Scalar then
        Printf.bprintf buf "    enc%d->setBytes(&%s, sizeof(int), %d);\n" n
          actual i
      else Printf.bprintf buf "    enc%d->setBuffer(%s, 0, %d);\n" n actual i)
    actuals;
  Printf.bprintf buf
    "    enc%d->dispatchThreads(MTL::Size::Make(%d, 1, 1), \
     MTL::Size::Make(256, 1, 1));\n\
    \    enc%d->endEncoding();\n\
    \    cb%d->commit();\n\
    \    cb%d->waitUntilCompleted();\n"
    n (Ndarray.Shape.size grid) n n n;
  Stdlib.Buffer.contents buf

let host_api =
  {
    Kir_c.alloc =
      (fun ~dst len ->
        Printf.sprintf
          "    MTL::Buffer *%s = device->newBuffer(%d * sizeof(int), \
           MTL::ResourceStorageModeShared);\n"
          dst len);
    upload =
      (fun ~dst ~src len ->
        Printf.sprintf "    memcpy(%s->contents(), %s, %d * sizeof(int));\n"
          dst src len);
    download =
      (fun ~dst ~src len ->
        Printf.sprintf "    memcpy(%s, %s->contents(), %d * sizeof(int));\n"
          dst src len);
    launch = launch_text;
    free = Printf.sprintf "    %s->release();\n";
  }

let host_program ~name ~steps =
  Kir_c.host_program dialect host_api
    ~prologue:
      (Printf.sprintf
         "/* %s_host.cpp -- generated host program (Metal compute, \
          metal-cpp). */\n\
          #include <Metal/Metal.hpp>\n\
          #include <cstdio>\n\
          #include <cstring>\n\n\
          int main(void)\n\
          {\n\
         \    MTL::Device *device = MTL::CreateSystemDefaultDevice();\n\
         \    MTL::CommandQueue *queue = device->newCommandQueue();\n\
         \    NS::Error *err = nullptr;\n\
         \    MTL::Library *library = device->newLibrary(\n\
         \        NS::String::string(\"%s.metallib\", NS::UTF8StringEncoding), \
          &err);\n\n"
         name name)
    ~epilogue:"    return 0;\n}\n" steps

let makefile ~name =
  Printf.sprintf
    "# Makefile -- generated by the SAC Metal backend (simulated)\n\
     METAL = xcrun -sdk macosx metal\n\
     METALLIB = xcrun -sdk macosx metallib\n\
     CXX = clang++\n\
     CXXFLAGS = -std=c++17 -O3\n\
     LDFLAGS = -framework Metal -framework Foundation\n\n\
     %s: %s_host.cpp %s.metallib\n\
     \t$(CXX) $(CXXFLAGS) -o $@ %s_host.cpp $(LDFLAGS)\n\n\
     %s.metallib: %s.air\n\
     \t$(METALLIB) -o $@ $<\n\n\
     %s.air: %s.metal\n\
     \t$(METAL) -c -o $@ $<\n\n\
     clean:\n\
     \trm -f %s %s.air %s.metallib\n"
    name name name name name name name name name name name
