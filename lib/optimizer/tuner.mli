(** The autotuner both compile routes share ([--opt auto]).

    One move repertoire, one fuse-to-fixpoint loop, one synthetic
    argument pool and one cached tune driver over {!Search} and
    {!Cache}.  A compile route (SAC plans, generated ArrayOL programs)
    describes only what is its own as a {!route}: how to fingerprint
    and cost a program, which producer/consumer pairs may fuse, and
    which kernel sites the grid-level {!Rules} may rewrite. *)

type 'p fusion = string * (unit -> ('p * Gpu.Fuse.stats) option)
(** One named fusion rewrite, labelled ["fuse:<producer>"]; the thunk
    returns the fused program and what it saved, or [None] when the
    fusion is refused or the fused program fails the route's gates. *)

type 'p site = {
  name : string;  (** the site's name in rule labels *)
  tiles : bool;  (** whether tile moves are offered at this site *)
  rewrite :
    (Gpu.Kir.t * int array -> (Gpu.Kir.t * int array) option) -> 'p option;
      (** apply a grid-level rule to the site's kernels; [None] when it
          changes nothing or the result fails the route's gates *)
}

type ('p, 's) route = {
  pipeline : string;  (** cache-key prefix *)
  state : 'p -> Gpu.Fuse.stats -> 's option -> 's;
      (** search state from a program, its accumulated fusion savings
          and the state before the last rewrite *)
  view : 's -> 'p * Gpu.Fuse.stats * 's option;  (** inverse of [state] *)
  fingerprint : 'p -> string;
      (** search-pruning and cache digest, equal for equal programs *)
  cost : 'p -> float;  (** modelled time, the search objective *)
  fusions : 'p -> 'p fusion list;
  sites : 'p -> 'p site list;
  shape : 'p -> int * int;  (** rows and columns for the cache key *)
}

val fuse_fixpoint :
  ('p -> 'p fusion list) -> 'p -> 'p * Gpu.Fuse.stats
(** Apply the first fusion that succeeds until none does (a chain
    A -> B -> C fuses twice); returns the savings summed, or
    {!Gpu.Fuse.no_stats} when nothing fused.  The fixed [--fuse] mode
    of both routes. *)

val synthetic : int array -> int Ndarray.Tensor.t
(** The shared synthetic argument of a shape, element [i] (row-major)
    being [i mod 251].  Timing-only cost runs never mutate it, so one
    tensor per shape serves every evaluation. *)

val moves : ('p, 's) route -> 's -> 's Search.candidate list
(** Every move from a state, in a fixed order: ["fuse!"] (fusion to
    fixpoint, offered only when something fuses), the route's
    ["fuse:<x>"] pairs, ["fission"] (back to the state before the last
    rewrite), then for each site ["interchange:<site>"] and, where the
    site allows tiles, ["tile:<site>:x2"] and ["tile:<site>:x4"]. *)

val tune : ('p, 's) route -> device:string -> 'p -> 's * string list
(** [tune r ~device p] returns the tuned state and its rule path.  The
    winner is memoised in {!Cache} under (pipeline, shape, [device],
    fingerprint of [p]); on a miss {!Search.run} finds it.  The path is
    then replayed on [p] itself, re-verifying each step; a diverging
    replay returns [p]'s own state and an empty path, and bumps
    [optimizer.replay_fallbacks]. *)
