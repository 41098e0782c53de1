(* The autotuner policy both compile routes share.  A route names its
   own parts (fingerprint, cost, fusion candidates, rewrite sites, the
   state constructor); the move repertoire, its order, the
   fuse-to-fixpoint loop and the cached tune driver live only here. *)

open Ndarray

type 'p fusion = string * (unit -> ('p * Gpu.Fuse.stats) option)

type 'p site = {
  name : string;
  tiles : bool;
  rewrite :
    (Gpu.Kir.t * int array -> (Gpu.Kir.t * int array) option) -> 'p option;
}

type ('p, 's) route = {
  pipeline : string;
  state : 'p -> Gpu.Fuse.stats -> 's option -> 's;
  view : 's -> 'p * Gpu.Fuse.stats * 's option;
  fingerprint : 'p -> string;
  cost : 'p -> float;
  fusions : 'p -> 'p fusion list;
  sites : 'p -> 'p site list;
  shape : 'p -> int * int;
}

let fuse_fixpoint fusions p =
  let rec go p stats =
    match List.find_map (fun (_, apply) -> apply ()) (fusions p) with
    | Some (p', s) -> go p' (Gpu.Fuse.add_stats stats s)
    | None -> (p, stats)
  in
  go p Gpu.Fuse.no_stats

(* The search scores hundreds of candidates per tune; materialising a
   fresh frame-sized tensor for each would dwarf the costing itself.
   Timing-only runs never mutate their arguments, so one synthetic
   tensor per shape is shared across evaluations. *)
let pool_lock = Mutex.create ()

let pool : (int array, int Tensor.t) Hashtbl.t = Hashtbl.create 8

let synthetic shape =
  Mutex.lock pool_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock pool_lock)
    (fun () ->
      match Hashtbl.find_opt pool shape with
      | Some t -> t
      | None ->
          let t = Tensor.init_lin shape (fun i -> i mod 251) in
          Hashtbl.replace pool shape t;
          t)

let tile_factors = [ 2; 4 ]

let moves r st =
  let p, fstats, undo = r.view st in
  let child (p', s) = r.state p' (Gpu.Fuse.add_stats fstats s) (Some st) in
  let fuse_all =
    (* Fusion to fixpoint in one move: makes the fixed --fuse plan a
       depth-1 candidate, so the tuned plan is never modelled slower
       than either fixed mode. *)
    {
      Search.rule = "fuse!";
      apply =
        (fun () ->
          match fuse_fixpoint r.fusions p with
          | _, s when s.Gpu.Fuse.kernels_eliminated = 0 -> None
          | fused -> Some (child fused));
    }
  in
  let fuse_one =
    List.map
      (fun (rule, apply) ->
        { Search.rule; apply = (fun () -> Option.map child (apply ())) })
      (r.fusions p)
  in
  let fission =
    match undo with
    | None -> []
    | Some prev ->
        [ { Search.rule = "fission"; apply = (fun () -> Some prev) } ]
  in
  let per_site =
    List.concat_map
      (fun s ->
        let move rule f =
          {
            Search.rule;
            apply =
              (fun () ->
                Option.map
                  (fun p' -> r.state p' fstats (Some st))
                  (s.rewrite f));
          }
        in
        move ("interchange:" ^ s.name) Rules.interchange
        :: (if s.tiles then
              List.map
                (fun factor ->
                  move
                    (Printf.sprintf "tile:%s:x%d" s.name factor)
                    (Rules.tile ~factor))
                tile_factors
            else []))
      (r.sites p)
  in
  (fuse_all :: fuse_one) @ fission @ per_site

let m_fallbacks = Obs.Metrics.counter "optimizer.replay_fallbacks"

let tune r ~device p =
  let init = r.state p Gpu.Fuse.no_stats None in
  let rows, cols = r.shape p in
  let key =
    Cache.key ~pipeline:r.pipeline ~rows ~cols ~device
      ~digest:(r.fingerprint p)
  in
  let program st =
    let p, _, _ = r.view st in
    p
  in
  let tuned =
    Cache.find_or_tune ~key (fun () ->
        let o =
          Search.run
            ~cost:(fun st -> r.cost (program st))
            ~fingerprint:(fun st -> r.fingerprint (program st))
            ~moves:(moves r) init
        in
        {
          Cache.rules = o.Search.path;
          tuned_us = o.Search.best_cost;
          base_us = o.Search.base_cost;
        })
  in
  (* Replay the memoised path on this caller's own program (which may
     carry different labels); each step re-verifies.  A diverging
     replay falls back to the program as given, and is counted. *)
  match Search.replay ~moves:(moves r) init tuned.Cache.rules with
  | Some st -> (st, tuned.Cache.rules)
  | None ->
      Obs.Metrics.incr m_fallbacks;
      (init, [])
