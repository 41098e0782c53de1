(* Performance lints over the static memory-behaviour analysis.

   Combines the two derivations — the sampled-but-exact warp summary of
   {!Gpu.Kir.static_cost} and the symbolic proofs of {!Access} — into
   ranked findings about the memory behaviour the paper's Section VIII
   comparison hinges on:

   - [Uncoalesced_access] (error): a hot buffer whose warp transactions
     waste most of every fetched 128-byte segment.  The threshold is
     warp efficiency, not the per-thread class: the vertical filter's
     per-thread column walk with lane stride 1 is perfectly coalesced
     and must not fire, while a transposed (gid-swapped) indexing with
     identical per-thread shape must.
   - [Divergent_branch] (warning around stores, note otherwise): a
     branch whose decision sequence differs between lanes of a sampled
     warp serialises both sides.
   - [Redundant_reads] (note): warp lanes re-fetch addresses a
     scratchpad stage would hold — the overlapped-tiling opportunity,
     ranked by the modelled staged bandwidth.
   - [Bank_conflict] (note): the modelled conflict degree such a stage
     would pay on the 32-bank scratchpad.
   - [Stranded_lanes] (note): the launch total leaves lanes of the
     last warp idle.

   Findings are ranked: errors first, then by the read share of the
   offending buffer, so `--emit lint` output leads with what costs the
   most. *)

open Gpu

(* A buffer is "hot" when it carries at least this share of the
   kernel's reads; colder buffers never produce error findings. *)
let hot_share = 0.25

(* Cache-amortised warp efficiency below this is uncoalesced.  The
   shipped kernels bottom out at ~0.19 (the 72-thread horizontal edge
   strips, whose warps span rows with a 6-word burst: 6/32 of each
   line is consumed), while a transposed walk — burst 1, one segment
   per read — sits at 1/32.  0.15 separates the two decisively. *)
let uncoalesced_eff = 0.15

(* Overlap share above which a scratchpad stage is worth a note; the
   11- and 14-point windows sit far above it. *)
let overlap_share = 0.5

let bank_conflict_degree = 8

let class_name = function
  | `Row -> "row"
  | `Column -> "column"
  | `Gather -> "gather"

let pct f = int_of_float (100.0 *. f)

type ranked = { weight : float; finding : Finding.t }

let check_summary ?(file = "kir") ~device ~split ~where ~grid ~total
    (s : Kir.access_summary) ~(access : Access.t option) =
  let total_reads =
    List.fold_left (fun a b -> a +. b.Kir.ba_reads) 0. s.Kir.as_buffers
  in
  let proven name =
    Option.bind access (fun a ->
        List.find_opt
          (fun (b : Access.buffer_profile) -> b.Access.bp_buffer = name)
          a.Access.a_buffers)
  in
  let ranked = ref [] in
  let emit ~weight f = ranked := { weight; finding = f } :: !ranked in
  List.iter
    (fun (b : Kir.buffer_access) ->
      let share =
        if total_reads <= 0. then 0. else b.Kir.ba_reads /. total_reads
      in
      let stride_note =
        match proven b.Kir.ba_buffer with
        | Some { Access.bp_lane_stride = Some st; _ } ->
            Printf.sprintf " (proven lane stride %d)" st
        | _ -> ""
      in
      if b.Kir.ba_efficiency < uncoalesced_eff && share >= hot_share then
        emit ~weight:(1000. +. (share *. b.Kir.ba_reads))
          (Finding.v Finding.Uncoalesced_access Finding.Error ~file ~where
             "uncoalesced %s access on hot buffer %s: warps use %d%% of \
              fetched segments%s, %d%% of kernel reads"
             (class_name b.Kir.ba_class)
             b.Kir.ba_buffer
             (pct b.Kir.ba_efficiency)
             stride_note (pct share))
      else if b.Kir.ba_efficiency < uncoalesced_eff && b.Kir.ba_reads > 0. then
        emit ~weight:(share *. b.Kir.ba_reads)
          (Finding.v Finding.Uncoalesced_access Finding.Note ~file ~where
             "uncoalesced %s access on %s: warps use %d%% of fetched \
              segments%s (cold: %d%% of reads)"
             (class_name b.Kir.ba_class)
             b.Kir.ba_buffer
             (pct b.Kir.ba_efficiency)
             stride_note (pct share));
      if b.Kir.ba_overlap >= overlap_share && b.Kir.ba_reads >= 2. then begin
        let staged =
          Perf_model.staged_bandwidth_gbs device ~split
            ~bank_conflict:b.Kir.ba_bank_conflict
        in
        emit ~weight:(10. +. (share *. b.Kir.ba_overlap))
          (Finding.v Finding.Redundant_reads Finding.Note ~file ~where
             "warp re-reads %d%% of %s: a scratchpad stage would absorb \
              the overlap at ~%.0f GB/s staged bandwidth"
             (pct b.Kir.ba_overlap) b.Kir.ba_buffer staged);
        if b.Kir.ba_bank_conflict >= bank_conflict_degree then
          emit ~weight:(5. +. float_of_int b.Kir.ba_bank_conflict)
            (Finding.v Finding.Bank_conflict Finding.Note ~file ~where
               "staging %s would serialise %d-way on the 32-bank \
                scratchpad; pad or transpose the stage"
               b.Kir.ba_buffer b.Kir.ba_bank_conflict)
      end)
    s.Kir.as_buffers;
  List.iter
    (fun (br : Kir.branch_summary) ->
      if br.Kir.br_divergent then
        if br.Kir.br_stores > 0. then
          emit ~weight:(100. +. br.Kir.br_ops)
            (Finding.v Finding.Divergent_branch Finding.Warning ~file ~where
               "divergent branch if (%s) around the dominant store \
                (%.1f ops, %.2f stores per thread in the region)"
               (Kir_c.expr_text br.Kir.br_cond)
               br.Kir.br_ops br.Kir.br_stores)
        else if br.Kir.br_ops > 0. then
          emit ~weight:br.Kir.br_ops
            (Finding.v Finding.Divergent_branch Finding.Note ~file ~where
               "divergent branch if (%s) (%.1f ops per thread serialised)"
               (Kir_c.expr_text br.Kir.br_cond)
               br.Kir.br_ops))
    s.Kir.as_branches;
  if s.Kir.as_stranded_lanes > 0 then begin
    let warps = (total + s.Kir.as_warp_size - 1) / s.Kir.as_warp_size in
    emit ~weight:(float_of_int s.Kir.as_stranded_lanes /. 32.)
      (Finding.v Finding.Stranded_lanes Finding.Note ~file ~where
         "launch shape %s strands %d of the last warp's lanes (%d \
          threads over %d warps)"
         (Ndarray.Shape.to_string grid)
         s.Kir.as_stranded_lanes total warps)
  end;
  List.map
    (fun r -> r.finding)
    (List.stable_sort
       (fun a b -> compare b.weight a.weight)
       (List.rev !ranked))

let check ?(file = "kir") ?(scalars = []) ?(device = Device.gtx480)
    ?(split = 1) ~grid (k : Kir.t) =
  let where = k.Kir.kname in
  match Kir.static_cost ~scalars k ~grid with
  | Error m ->
      [
        Finding.v Finding.Analysis_skipped Finding.Note ~file ~where
          "perf lint skipped: %s" m;
      ]
  | Ok cost -> (
      match cost.Kir.summary with
      | None -> []
      | Some s ->
          let access = Access.analyze ~scalars ~grid k in
          check_summary ~file ~device ~split ~where ~grid
            ~total:(Ndarray.Shape.size grid) s ~access)

let check_group ?file ?scalars ?device ?split kernels =
  Finding.perf_kernels_checked (List.length kernels);
  List.concat_map
    (fun (k, grid) -> check ?file ?scalars ?device ?split ~grid k)
    kernels
