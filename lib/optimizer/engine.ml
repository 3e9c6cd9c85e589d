open Relalg
module L = Logical
module H = Hashcons
module S = Scalar
module SSet = Set.Make (String)

type options = { disabled : SSet.t; max_trees : int; max_growth : int }

let default_options = { disabled = SSet.empty; max_trees = 1200; max_growth = 6 }

type result = {
  best_logical : L.t;
  plan : Physical.t;
  cost : float;
  exercised : SSet.t;
  impl_exercised : SSet.t;
  trees_explored : int;
  budget_truncated : bool;
}

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

(* Per-rule instruments, resolved once per [explore] so the hot loop
   never touches the metrics registry. When collection is disabled every
   event reduces to the single branch inside [Obs.Metrics]/the [enabled]
   guard here. *)
type instrumented_rule = {
  rule : Rule.t;
  attempts : Obs.Metrics.counter;  (** application attempts, per node *)
  rewritten : Obs.Metrics.counter;  (** rewrites produced *)
  match_ns : Obs.Metrics.histogram;  (** latency of one application *)
}

let instrument_rule (r : Rule.t) =
  { rule = r;
    attempts = Obs.Metrics.counter ~label:r.name "optimizer.rule.attempts";
    rewritten = Obs.Metrics.counter ~label:r.name "optimizer.rule.rewrites";
    match_ns = Obs.Metrics.histogram ~label:r.name "optimizer.rule.match_ns" }

(* Firing counters: one per rule name, bumped when a rewrite is admitted
   as a {e novel} tree (attempts and rewrites count applications; fired
   counts rewrites that actually grew the closure — the signal the
   discovery ranker consumes). The memo keeps registry lookups out of
   the admission loop, resolved per explore call like the rest. *)
let fired_counters () =
  let memo : (string, Obs.Metrics.counter) Hashtbl.t = Hashtbl.create 16 in
  fun name ->
    match Hashtbl.find_opt memo name with
    | Some c -> c
    | None ->
      let c = Obs.Metrics.counter ~label:name "optimizer.rule.fired" in
      Hashtbl.add memo name c;
      c

let apply_rule catalog (ir : instrumented_rule) t =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr ir.attempts;
    let t0 = Obs.Clock.now_ns () in
    let out = ir.rule.apply catalog t in
    Obs.Metrics.observe ir.match_ns (Obs.Clock.ns_between t0 (Obs.Clock.now_ns ()));
    (match out with [] -> () | l -> Obs.Metrics.add ir.rewritten (List.length l));
    out
  end
  else ir.rule.apply catalog t

(* Logical children have arity <= 2. *)
let replace_child kids i kid' =
  match (kids, i) with
  | [ _ ], 0 -> [ kid' ]
  | [ _; b ], 0 -> [ kid'; b ]
  | [ a; _ ], 1 -> [ a; kid' ]
  | _ -> invalid_arg "Engine.replace_child"

(* All (rule name, rewritten whole tree) pairs obtained by applying a
   rule at any node of [t], recomputed from scratch for every containing
   tree — the seed engine's behaviour, kept behind [Reference.optimize] as
   the reference implementation for equivalence tests and before/after
   benchmarks. Accumulator-based: one reversed push per rewrite and a
   single [List.rev], instead of the previous [List.mapi] replacement and
   repeated [@] of growing lists. Enumeration order (root rewrites in
   registry order, then children left to right) is part of the engine's
   observable behaviour under a tree budget and must match
   [node_rewrites] below. *)
let rewrites_unmemoized catalog rules (t : L.t) : (string * L.t) list =
  let acc = ref [] in
  let rec go wrap t =
    List.iter
      (fun ir ->
        List.iter
          (fun t' -> acc := (ir.rule.name, wrap t') :: !acc)
          (apply_rule catalog ir t))
      rules;
    let kids = L.children t in
    List.iteri
      (fun i kid ->
        go (fun kid' -> wrap (L.with_children t (replace_child kids i kid'))) kid)
      kids
  in
  go Fun.id t;
  List.rev !acc

(* The rewrite service of one exploration: rewrites of each distinct
   hash-consed subtree are computed once and replayed for every
   containing tree (Cascades-memo behaviour). A whole-tree rewrite list
   is assembled from the child's memoized list with [H.rebuild] — O(1)
   per rewrite instead of a fresh rule sweep of the subtree. *)
type rewriter = {
  rw_catalog : Storage.Catalog.t;
  rw_rules : instrumented_rule list;
  rw_memo : (int, (string * H.node) list) Hashtbl.t;
  rw_hits : Obs.Metrics.counter;
  rw_misses : Obs.Metrics.counter;
}

let make_rewriter catalog options rules =
  let rules =
    List.filter (fun (r : Rule.t) -> not (SSet.mem r.name options.disabled)) rules
  in
  { rw_catalog = catalog;
    rw_rules = List.map instrument_rule rules;
    rw_memo = Hashtbl.create 1024;
    rw_hits = Obs.Metrics.counter "optimizer.rewrite_memo.hits";
    rw_misses = Obs.Metrics.counter "optimizer.rewrite_memo.misses" }

let rec node_rewrites rw (n : H.node) : (string * H.node) list =
  match Hashtbl.find_opt rw.rw_memo n.H.id with
  | Some r ->
    Obs.Metrics.incr rw.rw_hits;
    r
  | None ->
    Obs.Metrics.incr rw.rw_misses;
    let acc = ref [] in
    List.iter
      (fun ir ->
        List.iter
          (fun t' -> acc := (ir.rule.name, H.intern t') :: !acc)
          (apply_rule rw.rw_catalog ir n.H.repr))
      rw.rw_rules;
    Array.iteri
      (fun i kid ->
        List.iter
          (fun (name, kid') -> acc := (name, H.rebuild n i kid') :: !acc)
          (node_rewrites rw kid))
      n.H.kids;
    let r = List.rev !acc in
    Hashtbl.replace rw.rw_memo n.H.id r;
    r

type exploration = {
  nodes : H.node list;  (** insertion order; head is the input tree *)
  logical_exercised : SSet.t;
  count : int;
  truncated : bool;  (** the tree budget cut the closure short *)
}

(* The closure loop. [rewrites] enumerates the rewrites of one tree:
   [node_rewrites] (memo replay) in production, the per-tree
   recomputation behind [Reference.optimize]. *)
let explore ~rewrites ~options ~rules catalog t0 : exploration =
  (* Resolved once per call, not per rewrite: registry lookups stay out
     of the closure loop, and a [Metrics.clear] between calls cannot
     leave us holding instruments the registry no longer knows about. *)
  let queue_depth_gauge = Obs.Metrics.gauge "optimizer.explore.queue_depth" in
  let explored_counter = Obs.Metrics.counter "optimizer.explore.trees" in
  let exhausted_counter = Obs.Metrics.counter "optimizer.explore.budget_exhausted" in
  let hashcons_gauge = Obs.Metrics.gauge "optimizer.hashcons.nodes" in
  let rw = make_rewriter catalog options rules in
  let fired = fired_counters () in
  let n0 = H.intern t0 in
  let max_size = n0.H.nsize + options.max_growth in
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [ n0 ] in
  let queue = Queue.create () in
  Hashtbl.replace seen n0.H.id ();
  Queue.add n0 queue;
  let count = ref 1 in
  let exercised = ref SSet.empty in
  let truncated = ref false in
  while (not (Queue.is_empty queue)) && !count < options.max_trees do
    let n = Queue.pop queue in
    List.iter
      (fun (name, n') ->
        exercised := SSet.add name !exercised;
        if n'.H.nsize <= max_size && not (Hashtbl.mem seen n'.H.id) then begin
          if !count < options.max_trees then begin
            Hashtbl.replace seen n'.H.id ();
            order := n' :: !order;
            Queue.add n' queue;
            Obs.Metrics.incr (fired name);
            Obs.Metrics.gauge_max queue_depth_gauge
              (float_of_int (Queue.length queue));
            incr count
          end
          else
            (* A novel tree was dropped on the floor: the closure is
               truncated, whatever the queue looks like afterwards. *)
            truncated := true
        end)
      (rewrites rw n)
  done;
  let truncated = !truncated || not (Queue.is_empty queue) in
  Obs.Metrics.add explored_counter !count;
  Obs.Metrics.gauge_set hashcons_gauge (float_of_int (H.live_nodes ()));
  if Obs.Metrics.enabled () then begin
    (* Occupancy gauges: table *shape*, sampled once per explore (both
       snapshots scan buckets, so keep them off the rewrite loop). *)
    let occ = H.occupancy () in
    Obs.Metrics.gauge_set
      (Obs.Metrics.gauge "relalg.hashcons.load_factor")
      occ.H.load_factor;
    Obs.Metrics.gauge_max
      (Obs.Metrics.gauge "relalg.hashcons.longest_chain")
      (float_of_int occ.H.longest_chain);
    Obs.Metrics.gauge_max
      (Obs.Metrics.gauge "optimizer.rewrite_memo.entries")
      (float_of_int (Hashtbl.length rw.rw_memo));
    let ms = Hashtbl.stats rw.rw_memo in
    Obs.Metrics.gauge_max
      (Obs.Metrics.gauge "optimizer.rewrite_memo.longest_chain")
      (float_of_int ms.Hashtbl.max_bucket_length)
  end;
  if truncated then begin
    Obs.Metrics.incr exhausted_counter;
    Obs.Trace.instant "explore.budget_exhausted"
      ~args:[ ("max_trees", Obs.Json.Int options.max_trees) ]
  end;
  { nodes = List.rev !order; logical_exercised = !exercised; count = !count; truncated }

(* ------------------------------------------------------------------ *)
(* Implementation (costing)                                            *)
(* ------------------------------------------------------------------ *)

let implementation_rule_names =
  [ "GetToTableScan"; "SelectToFilter"; "ProjectToComputeScalar";
    "JoinToNestedLoops"; "JoinToHashJoin"; "JoinToMergeJoin";
    "GbAggToHashAggregate"; "GbAggToStreamAggregate"; "SortToSort";
    "DistinctToHashDistinct"; "UnionAllToConcat"; "UnionToHashUnion";
    "IntersectToHashIntersect"; "ExceptToHashExcept"; "LimitToLimit" ]

let implementation_rule_set = SSet.of_list implementation_rule_names

type planner = {
  catalog : Storage.Catalog.t;
  est : Card.t;
  cache : (int, (Physical.t * float) option) Hashtbl.t;
      (* hashcons id -> best plan *)
  oid_cache : (int, Ident.Set.t) Hashtbl.t;  (* hashcons id -> output idents *)
  impl_disabled : SSet.t;
  mutable impl_exercised : SSet.t;
  memo_hits : Obs.Metrics.counter;
  memo_misses : Obs.Metrics.counter;
}

let log2 x = Float.max 1.0 (Float.log (x +. 2.0) /. Float.log 2.0)

let output_idents p (n : H.node) =
  match Hashtbl.find_opt p.oid_cache n.H.id with
  | Some s -> s
  | None ->
    let s = Props.output_idents p.catalog n.H.repr in
    Hashtbl.replace p.oid_cache n.H.id s;
    s

(* Paired equi-join keys and the residual predicate. *)
let equi_keys p pred left right =
  let lids = output_idents p left in
  let rids = output_idents p right in
  let keys, residual =
    List.fold_left
      (fun (keys, residual) conjunct ->
        match conjunct with
        | S.Cmp (S.Eq, S.Col a, S.Col b)
          when Ident.Set.mem a lids && Ident.Set.mem b rids ->
          ((a, b) :: keys, residual)
        | S.Cmp (S.Eq, S.Col a, S.Col b)
          when Ident.Set.mem b lids && Ident.Set.mem a rids ->
          ((b, a) :: keys, residual)
        | c -> (keys, c :: residual))
      ([], []) (S.conjuncts pred)
  in
  (List.rev keys, S.conj (List.rev residual))

let rec plan p (n : H.node) : (Physical.t * float) option =
  match Hashtbl.find_opt p.cache n.H.id with
  | Some r ->
    Obs.Metrics.incr p.memo_hits;
    r
  | None ->
    Obs.Metrics.incr p.memo_misses;
    (* Seed the cache to guard against cycles (none expected). *)
    Hashtbl.replace p.cache n.H.id None;
    let r = plan_uncached p n in
    Hashtbl.replace p.cache n.H.id r;
    r

and alternative p name (mk : unit -> (Physical.t * float) option) =
  if SSet.mem name p.impl_disabled then None
  else
    match mk () with
    | Some _ as r ->
      p.impl_exercised <- SSet.add name p.impl_exercised;
      r
    | None -> None

and plan_uncached p (n : H.node) : (Physical.t * float) option =
  let rows m = Card.rows_node p.est m in
  let kid i = n.H.kids.(i) in
  let alts : (Physical.t * float) option list =
    match n.H.repr with
    | L.Get { table; alias } ->
      [ alternative p "GetToTableScan" (fun () ->
            Some (Physical.TableScan { table; alias }, rows n)) ]
    | L.Filter { pred; _ } ->
      let child = kid 0 in
      [ alternative p "SelectToFilter" (fun () ->
            Option.map
              (fun (c, cost) ->
                (Physical.FilterOp { pred; child = c }, cost +. (0.2 *. rows child)))
              (plan p child)) ]
    | L.Project { cols; _ } ->
      let child = kid 0 in
      [ alternative p "ProjectToComputeScalar" (fun () ->
            Option.map
              (fun (c, cost) ->
                (Physical.ComputeScalar { cols; child = c }, cost +. (0.2 *. rows child)))
              (plan p child)) ]
    | L.Join { kind; pred; _ } ->
      let left = kid 0 and right = kid 1 in
      let nl = rows left and nr = rows right and nout = rows n in
      let keys, residual = equi_keys p pred left right in
      let nested =
        alternative p "JoinToNestedLoops" (fun () ->
            match (plan p left, plan p right) with
            | Some (pl, cl), Some (pr, cr) ->
              Some
                ( Physical.NestedLoopsJoin { kind; pred; left = pl; right = pr },
                  cl +. (nl *. cr) +. (0.05 *. nl *. nr) +. (0.1 *. nout) )
            | _ -> None)
      in
      let hash =
        if keys = [] then None
        else
          alternative p "JoinToHashJoin" (fun () ->
              match (plan p left, plan p right) with
              | Some (pl, cl), Some (pr, cr) ->
                Some
                  ( Physical.HashJoin
                      { kind;
                        left_keys = List.map fst keys;
                        right_keys = List.map snd keys;
                        residual;
                        left = pl;
                        right = pr },
                    cl +. cr +. (1.5 *. (nl +. nr)) +. (0.1 *. nout) )
              | _ -> None)
      in
      let merge =
        if keys = [] || kind <> L.Inner then None
        else
          alternative p "JoinToMergeJoin" (fun () ->
              match (plan p left, plan p right) with
              | Some (pl, cl), Some (pr, cr) ->
                let sort_keys ids = List.map (fun id -> (id, L.Asc)) ids in
                let sorted_l =
                  Physical.SortOp { keys = sort_keys (List.map fst keys); child = pl }
                in
                let sorted_r =
                  Physical.SortOp { keys = sort_keys (List.map snd keys); child = pr }
                in
                Some
                  ( Physical.MergeJoin
                      { left_keys = List.map fst keys;
                        right_keys = List.map snd keys;
                        residual;
                        left = sorted_l;
                        right = sorted_r },
                    cl +. cr
                    +. (nl *. log2 nl)
                    +. (nr *. log2 nr)
                    +. nl +. nr +. (0.1 *. nout) )
              | _ -> None)
      in
      [ nested; hash; merge ]
    | L.GroupBy { keys; aggs; _ } ->
      let child = kid 0 in
      let nc = rows child in
      let hash =
        alternative p "GbAggToHashAggregate" (fun () ->
            Option.map
              (fun (c, cost) ->
                (Physical.HashAggregate { keys; aggs; child = c }, cost +. (1.5 *. nc)))
              (plan p child))
      in
      let stream =
        if keys = [] then None
        else
          alternative p "GbAggToStreamAggregate" (fun () ->
              Option.map
                (fun (c, cost) ->
                  let sorted =
                    Physical.SortOp
                      { keys = List.map (fun k -> (k, L.Asc)) keys; child = c }
                  in
                  ( Physical.StreamAggregate { keys; aggs; child = sorted },
                    cost +. (nc *. log2 nc) +. nc ))
                (plan p child))
      in
      [ hash; stream ]
    | L.UnionAll _ ->
      [ alternative p "UnionAllToConcat" (fun () ->
            match (plan p (kid 0), plan p (kid 1)) with
            | Some (pa, ca), Some (pb, cb) -> Some (Physical.Concat (pa, pb), ca +. cb)
            | _ -> None) ]
    | L.Union _ ->
      [ alternative p "UnionToHashUnion" (fun () ->
            match (plan p (kid 0), plan p (kid 1)) with
            | Some (pa, ca), Some (pb, cb) ->
              Some
                ( Physical.HashUnion (pa, pb),
                  ca +. cb +. (1.5 *. (rows (kid 0) +. rows (kid 1))) )
            | _ -> None) ]
    | L.Intersect _ ->
      [ alternative p "IntersectToHashIntersect" (fun () ->
            match (plan p (kid 0), plan p (kid 1)) with
            | Some (pa, ca), Some (pb, cb) ->
              Some
                ( Physical.HashIntersect (pa, pb),
                  ca +. cb +. (1.5 *. (rows (kid 0) +. rows (kid 1))) )
            | _ -> None) ]
    | L.Except _ ->
      [ alternative p "ExceptToHashExcept" (fun () ->
            match (plan p (kid 0), plan p (kid 1)) with
            | Some (pa, ca), Some (pb, cb) ->
              Some
                ( Physical.HashExcept (pa, pb),
                  ca +. cb +. (1.5 *. (rows (kid 0) +. rows (kid 1))) )
            | _ -> None) ]
    | L.Distinct _ ->
      let child = kid 0 in
      [ alternative p "DistinctToHashDistinct" (fun () ->
            Option.map
              (fun (c, cost) -> (Physical.HashDistinct c, cost +. (1.5 *. rows child)))
              (plan p child)) ]
    | L.Sort { keys; _ } ->
      let child = kid 0 in
      [ alternative p "SortToSort" (fun () ->
            Option.map
              (fun (c, cost) ->
                let nc = rows child in
                (Physical.SortOp { keys; child = c }, cost +. (nc *. log2 nc)))
              (plan p child)) ]
    | L.Limit { count; _ } ->
      let child = kid 0 in
      [ alternative p "LimitToLimit" (fun () ->
            Option.map
              (fun (c, cost) ->
                (Physical.LimitOp { count; child = c }, cost +. float_of_int count))
              (plan p child)) ]
  in
  List.fold_left
    (fun best alt ->
      match (best, alt) with
      | None, x | x, None -> x
      | (Some (_, cb) as b), (Some (_, ca) as a) -> if ca < cb then a else b)
    None alts

(* ------------------------------------------------------------------ *)
(* Public entry points                                                 *)
(* ------------------------------------------------------------------ *)

let make_planner catalog options =
  { catalog;
    est = Card.create catalog;
    cache = Hashtbl.create 1024;
    oid_cache = Hashtbl.create 1024;
    impl_disabled = options.disabled;
    impl_exercised = SSet.empty;
    memo_hits = Obs.Metrics.counter "optimizer.memo.hits";
    memo_misses = Obs.Metrics.counter "optimizer.memo.misses" }

let optimize_with ~rewrites ?(options = default_options) ?(rules = Rules.all)
    catalog t0 =
  match Props.validate catalog t0 with
  | Error e -> Error ("invalid input tree: " ^ e)
  | Ok () ->
    let exploration =
      Obs.Trace.with_span "engine.explore"
        ~args:[ ("max_trees", Obs.Json.Int options.max_trees) ]
        (fun () -> explore ~rewrites ~options ~rules catalog t0)
    in
    let planner = make_planner catalog options in
    let best =
      Obs.Trace.with_span "engine.cost"
        ~args:[ ("trees", Obs.Json.Int exploration.count) ]
        (fun () ->
          List.fold_left
            (fun best node ->
              match plan planner node with
              | None -> best
              | Some (phys, cost) -> (
                match best with
                | Some (_, _, best_cost) when best_cost <= cost -> best
                | _ -> Some (node, phys, cost)))
            None exploration.nodes)
    in
    (match best with
    | None -> Error "no physical plan (are implementation rules disabled?)"
    | Some (best_node, plan, cost) ->
      Ok
        { best_logical = best_node.H.repr;
          plan;
          cost;
          exercised = exploration.logical_exercised;
          impl_exercised = planner.impl_exercised;
          trees_explored = exploration.count;
          budget_truncated = exploration.truncated })

(* The per-tree reference engine: the same closure loop and costing
   pass, fed by [rewrites_unmemoized] instead of the memo replay. *)
module Reference = struct
  let per_tree_rewrites rw (n : H.node) =
    List.map
      (fun (name, t') -> (name, H.intern t'))
      (rewrites_unmemoized rw.rw_catalog rw.rw_rules n.H.repr)

  let optimize ?options ?rules catalog t0 =
    optimize_with ~rewrites:per_tree_rewrites ?options ?rules catalog t0
end

let optimize ?options ?rules catalog t0 =
  optimize_with ~rewrites:node_rewrites ?options ?rules catalog t0

let ruleset ?(options = default_options) ?(rules = Rules.all) catalog t0 =
  match Props.validate catalog t0 with
  | Error e -> Error ("invalid input tree: " ^ e)
  | Ok () ->
    let exploration =
      Obs.Trace.with_span "engine.explore"
        ~args:[ ("max_trees", Obs.Json.Int options.max_trees) ]
        (fun () -> explore ~rewrites:node_rewrites ~options ~rules catalog t0)
    in
    Ok exploration.logical_exercised

(* ------------------------------------------------------------------ *)
(* Shared exploration (monotonicity at the engine level, paper §5)      *)
(* ------------------------------------------------------------------ *)

(* A tree of the closure is tagged with the *minimal* sets of rule names
   used along its known derivation paths (an antichain under inclusion:
   supersets are pruned, and subsets subsume). [Cost(q, ¬R)] then only
   needs the trees with at least one tag set disjoint from R — no
   re-exploration. The antichain is capped; dropping an incomparable tag
   set is conservative (a tree may be *excluded* from some ¬R closure it
   belongs to, never wrongly included), which errs exactly in the
   direction the paper's well-behavedness property (§5.2) already
   allows. *)
let max_tagsets = 16

(* Merge [s] into the minimal antichain [sets]; true iff it changed. *)
let merge_tagset sets s =
  if List.exists (fun s0 -> SSet.subset s0 s) !sets then false
  else begin
    let remaining = List.filter (fun s0 -> not (SSet.subset s s0)) !sets in
    if List.length remaining >= max_tagsets then false
    else begin
      sets := s :: remaining;
      true
    end
  end

type shared = {
  sh_catalog : Storage.Catalog.t;
  sh_options : options;
  sh_nodes : (H.node * SSet.t list) array;  (* insertion order; head = input *)
  sh_truncated : bool;
  sh_exercised : SSet.t;
  sh_planners : (string, planner) Hashtbl.t;
      (* one planner per distinct implementation-disabled subset; for the
         compression workload (logical targets only) all [shared_cost]
         calls share a single planner and therefore a single plan memo *)
}

let explore_shared ?(options = default_options) ?(rules = Rules.all) catalog t0 =
  match Props.validate catalog t0 with
  | Error e -> Error ("invalid input tree: " ^ e)
  | Ok () ->
    Obs.Metrics.incr (Obs.Metrics.counter "optimizer.shared.explorations");
    Obs.Trace.with_span "engine.explore_shared"
      ~args:[ ("max_trees", Obs.Json.Int options.max_trees) ]
    @@ fun () ->
    let rw = make_rewriter catalog options rules in
    let fired = fired_counters () in
    let n0 = H.intern t0 in
    let max_size = n0.H.nsize + options.max_growth in
    let tags : (int, SSet.t list ref) Hashtbl.t = Hashtbl.create 256 in
    let order = ref [ n0 ] in
    let queue = Queue.create () in
    Hashtbl.replace tags n0.H.id (ref [ SSet.empty ]);
    Queue.add n0 queue;
    let count = ref 1 in
    let exercised = ref SSet.empty in
    let truncated = ref false in
    (* Unlike [explore], the loop drains the queue even after the tree
       budget is hit: re-enqueued trees propagate tag refinements (a
       cheaper derivation path discovered later), and processing them is
       a memo replay, not new rule work. Novel trees are still rejected
       once [max_trees] is reached, so the closure itself matches
       [explore]'s exactly. *)
    while not (Queue.is_empty queue) do
      let n = Queue.pop queue in
      let my_tags = !(Hashtbl.find tags n.H.id) in
      List.iter
        (fun (name, n') ->
          exercised := SSet.add name !exercised;
          if n'.H.nsize <= max_size then begin
            match Hashtbl.find_opt tags n'.H.id with
            | None ->
              if !count < options.max_trees then begin
                let sets = ref [] in
                List.iter
                  (fun s -> ignore (merge_tagset sets (SSet.add name s)))
                  my_tags;
                Hashtbl.replace tags n'.H.id sets;
                order := n' :: !order;
                Queue.add n' queue;
                Obs.Metrics.incr (fired name);
                incr count
              end
              else truncated := true
            | Some existing ->
              let changed =
                List.fold_left
                  (fun ch s -> merge_tagset existing (SSet.add name s) || ch)
                  false my_tags
              in
              (* Tag refinement: successors must see the new, smaller
                 derivation sets. Terminates — the family of derivable
                 tag sets only ever grows downward in the subset order. *)
              if changed then Queue.add n' queue
          end)
        (node_rewrites rw n)
    done;
    let nodes =
      Array.of_list
        (List.rev_map (fun n -> (n, !(Hashtbl.find tags n.H.id))) !order)
    in
    Ok
      { sh_catalog = catalog;
        sh_options = options;
        sh_nodes = nodes;
        sh_truncated = !truncated;
        sh_exercised = !exercised;
        sh_planners = Hashtbl.create 4 }

let shared_planner sh disabled =
  let impl_dis = SSet.inter disabled implementation_rule_set in
  let key = String.concat "\x00" (SSet.elements impl_dis) in
  match Hashtbl.find_opt sh.sh_planners key with
  | Some p -> p
  | None ->
    let p = make_planner sh.sh_catalog { sh.sh_options with disabled = impl_dis } in
    Hashtbl.replace sh.sh_planners key p;
    p

let shared_cost sh ~disabled =
  Obs.Metrics.incr (Obs.Metrics.counter "optimizer.shared.cost_passes");
  let planner = shared_planner sh disabled in
  let best =
    Array.fold_left
      (fun best (n, tag_sets) ->
        if List.exists (fun s -> SSet.disjoint s disabled) tag_sets then
          match plan planner n with
          | None -> best
          | Some (_, c) -> (
            match best with Some b when b <= c -> best | _ -> Some c)
        else best)
      None sh.sh_nodes
  in
  match best with
  | Some c -> Ok c
  | None -> Error "no physical plan (are implementation rules disabled?)"

let shared_truncated sh = sh.sh_truncated
let shared_exercised sh = sh.sh_exercised
let shared_trees sh = Array.length sh.sh_nodes
