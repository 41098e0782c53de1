type 'p candidate = { rule : string; apply : unit -> 'p option }

type 'p outcome = {
  best : 'p;
  best_cost : float;
  base_cost : float;
  path : string list;
  explored : int;
  rejected : int;
}

let m_candidates = Obs.Metrics.counter "optimizer.candidates"

let m_rules_applied = Obs.Metrics.counter "optimizer.rules_applied"

let m_rejections = Obs.Metrics.counter "optimizer.verify_rejections"

(* A node's [path] is kept reversed (most recent rule first); the order
   below is the tie-break making the whole search deterministic. *)
type 'p node = { plan : 'p; ncost : float; rpath : string list }

let node_order a b =
  match compare a.ncost b.ncost with
  | 0 -> (
      match compare (List.length a.rpath) (List.length b.rpath) with
      | 0 -> compare (List.rev a.rpath) (List.rev b.rpath)
      | c -> c)
  | c -> c

let run ?(beam = 2) ?(max_depth = 6) ~cost ~fingerprint ~moves init =
  let base_cost = cost init in
  let visited = Hashtbl.create 16 in
  Hashtbl.replace visited (fingerprint init) ();
  let explored = ref 0 and rejected = ref 0 in
  let best = ref { plan = init; ncost = base_cost; rpath = [] } in
  let consider n = if node_order n !best < 0 then best := n in
  let expand parent =
    List.filter_map
      (fun c ->
        Obs.Metrics.incr m_candidates;
        match c.apply () with
        | None ->
            incr rejected;
            Obs.Metrics.incr m_rejections;
            None
        | Some plan ->
            let fp = fingerprint plan in
            if Hashtbl.mem visited fp then None
            else begin
              Hashtbl.replace visited fp ();
              incr explored;
              Obs.Metrics.incr m_rules_applied;
              let n = { plan; ncost = cost plan; rpath = c.rule :: parent.rpath } in
              consider n;
              Some n
            end)
      (moves parent.plan)
  in
  let rec round depth frontier =
    if depth >= max_depth || frontier = [] then ()
    else
      let children = List.concat_map expand frontier in
      let children = List.sort node_order children in
      let keep =
        List.filteri (fun i _ -> i < beam) children
      in
      round (depth + 1) keep
  in
  round 0 [ { plan = init; ncost = base_cost; rpath = [] } ];
  {
    best = !best.plan;
    best_cost = !best.ncost;
    base_cost;
    path = List.rev !best.rpath;
    explored = !explored;
    rejected = !rejected;
  }

let replay ~moves init rules =
  List.fold_left
    (fun plan rule ->
      Option.bind plan (fun p ->
          Option.bind
            (List.find_opt (fun c -> c.rule = rule) (moves p))
            (fun c -> c.apply ())))
    (Some init) rules
