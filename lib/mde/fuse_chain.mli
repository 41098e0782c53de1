(** Producer/consumer kernel fusion over generated kernel tasks.

    Rewrites a {!Codegen.generated} program so that a kernel whose
    single output port feeds exactly one other kernel is inlined into
    its consumer via {!Gpu.Fuse.fuse_kernel}: the intermediate array's
    device buffer, its store/reload traffic and the producer launch
    disappear.  Producer input ports are renamed [pi ^ "_" ^ ip] and
    rewired to the fused task.  {!optimize} runs the candidates to a
    fixpoint ({!Optimizer.Tuner.fuse_fixpoint}) and re-renders the
    sources once; every fused task is re-checked with {!Verify.check} and
    any finding vetoes that rewrite. *)

val candidates :
  Codegen.generated ->
  (string * (unit -> (Codegen.generated * Gpu.Fuse.stats) option)) list
(** One named rewrite thunk per connection whose producer might inline
    into its consumer, labelled ["fuse:<producer instance>"].  A thunk
    returns [None] when the inversion is refused or the fused task
    fails {!Verify.check}.  Candidates do not re-render sources —
    callers {!Codegen.render} the final program once. *)

val optimize : Codegen.generated -> Codegen.generated * Gpu.Fuse.stats
(** Returns the (possibly) fused program and what the rewrite saved;
    {!Gpu.Fuse.no_stats} when nothing fused. *)
