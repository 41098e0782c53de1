(** Process-wide tuned-plan cache.

    The search is deterministic per (pipeline, shape, device, base-plan
    digest), so its winner is memoised once per key and replayed
    everywhere else — notably by {!Serve.Session}, whose per-session
    compiled-plan cache compiles through the same key and therefore
    serves the plan tuned by an earlier run (the bench ablation, or the
    first session of that shape) without re-searching.

    Entries store the winning {e rule path}, not the plan itself:
    callers replay the named rewrites on their own base plan (which may
    carry caller-specific kernel labels), re-verifying each step. *)

type tuned = {
  rules : string list;  (** winning rewrite sequence, possibly empty *)
  tuned_us : float;  (** modelled frame time of the tuned plan *)
  base_us : float;  (** modelled frame time of the unoptimised plan *)
}

val key :
  pipeline:string -> rows:int -> cols:int -> device:string -> digest:string ->
  string
(** Cache key for one (pipeline, shape, device, base-plan) combination. *)

val digest : 'a -> string
(** Structural digest of an arbitrary value (used on label-stripped
    plans so differently-labelled compiles of the same program share a
    key). *)

val canonical_digest : 'a -> string
(** Like {!digest}, but blind to physical sharing: two structurally
    equal values digest alike however their parts are shared.  The SAC
    route's fingerprint; its generated names are numbered per compile
    ([Sac.Names]), so two compiles of one source share a digest
    without any renaming. *)

val find_or_tune : key:string -> (unit -> tuned) -> tuned
(** Return the memoised result for [key], running the (possibly slow)
    tuner outside the lock on a miss; the first writer wins.  Bumps
    [optimizer.plan_cache_hits] / [optimizer.plan_cache_misses]. *)

val size : unit -> int

val clear : unit -> unit
(** Drop all entries (tests only). *)
