type tuned = { rules : string list; tuned_us : float; base_us : float }

let m_hits = Obs.Metrics.counter "optimizer.plan_cache_hits"

let m_misses = Obs.Metrics.counter "optimizer.plan_cache_misses"

let table : (string, tuned) Hashtbl.t = Hashtbl.create 16

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let key ~pipeline ~rows ~cols ~device ~digest =
  Printf.sprintf "%s/%dx%d/%s/%s" pipeline rows cols device digest

(* Closures can hide in kernel-free metadata; fall back to the
   structural hash rather than refusing to cache. *)
let digest_with flags v =
  match Marshal.to_string v flags with
  | s -> Digest.to_hex (Digest.string s)
  | exception _ -> Printf.sprintf "h%08x" (Hashtbl.hash v)

let digest v = digest_with [] v

let canonical_digest v = digest_with [ Marshal.No_sharing ] v

let find_or_tune ~key f =
  match locked (fun () -> Hashtbl.find_opt table key) with
  | Some tuned ->
      Obs.Metrics.incr m_hits;
      tuned
  | None ->
      let tuned = f () in
      Obs.Metrics.incr m_misses;
      locked (fun () ->
          match Hashtbl.find_opt table key with
          | Some winner -> winner
          | None ->
              Hashtbl.replace table key tuned;
              tuned)

let size () = locked (fun () -> Hashtbl.length table)

let clear () = locked (fun () -> Hashtbl.reset table)
