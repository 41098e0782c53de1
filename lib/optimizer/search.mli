(** Cost-guided search over rewrite sequences.

    The driver is a beam search with a deterministic total order on
    candidates: frontier plans are expanded by every applicable move,
    each surviving child is scored with the caller's cost function, and
    the [beam] cheapest children seed the next round.  {b Every}
    explored child is considered for the final answer, not only the
    beam survivors — so the result cost is never worse than any single
    rewrite the caller exposes as a move (in particular, a
    fuse-to-fixpoint move makes the fixed [--fuse] plan a depth-1 child
    and the tuned plan at least as good by construction).

    A move's [apply] returns [None] when the rewrite does not apply
    {e or} when the rewritten plan fails the caller's analysis gates;
    both count as verify rejections.  Already-visited plans (by the
    caller's [fingerprint]) are pruned, which closes rewrite cycles
    such as fuse/fission or double interchange.

    The search is sequential and allocation-order free, so with a
    deterministic cost function the selected plan and rule path are
    identical across runs and [--domains] settings. *)

type 'p candidate = {
  rule : string;  (** label recorded in the winning rule path *)
  apply : unit -> 'p option;
}

type 'p outcome = {
  best : 'p;
  best_cost : float;
  base_cost : float;
  path : string list;  (** rules producing [best], in application order *)
  explored : int;  (** candidates whose [apply] returned a plan *)
  rejected : int;  (** candidates rejected (inapplicable or gate failure) *)
}

val run :
  ?beam:int ->
  ?max_depth:int ->
  cost:('p -> float) ->
  fingerprint:('p -> string) ->
  moves:('p -> 'p candidate list) ->
  'p ->
  'p outcome
(** [run ~cost ~fingerprint ~moves init] explores rewrite sequences of
    length at most [max_depth] (default 6) keeping the [beam] (default
    2) cheapest plans per depth, and returns the cheapest plan seen
    anywhere (ties broken toward shorter, then lexicographically
    smaller rule paths).  Updates the [optimizer.candidates],
    [optimizer.rules_applied] and [optimizer.verify_rejections]
    counters. *)

val replay : moves:('p -> 'p candidate list) -> 'p -> string list -> 'p option
(** [replay ~moves init rules] re-applies a recorded rule path (such as
    a memoised [path]) to [init]: at each step it applies the first
    move of the current plan labelled with the next rule, so every
    step passes the caller's gates again.  [None] when some rule is not
    offered or its [apply] rejects. *)
