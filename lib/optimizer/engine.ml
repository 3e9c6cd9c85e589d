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

(* Per-rule instruments, resolved at most once per exploration (and only
   when it misses the rewrite memo) so the hot loop never touches the
   metrics registry. When collection is disabled every event reduces to
   the single branch inside [Obs.Metrics]/the [enabled] guard here. *)
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

let apply_rule catalog (ir : instrumented_rule) n =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr ir.attempts;
    let t0 = Obs.Clock.now_ns () in
    let out = ir.rule.apply catalog n in
    Obs.Metrics.observe ir.match_ns (Obs.Clock.ns_between t0 (Obs.Clock.now_ns ()));
    (match out with [] -> () | l -> Obs.Metrics.add ir.rewritten (List.length l));
    out
  end
  else ir.rule.apply catalog n

(* All (rule name, rewritten whole tree) pairs obtained by applying a
   rule at any node of [n], recomputed from scratch for every containing
   tree — the seed engine's behaviour, kept behind [Reference.optimize] as
   the reference implementation for equivalence tests and before/after
   benchmarks. Enumeration order (root rewrites in registry order, then
   children left to right) is part of the engine's observable behaviour
   under a tree budget and must match [node_rewrites] below. *)
let rewrites_unmemoized catalog rules (n : H.node) : (string * H.node) list =
  let acc = ref [] in
  let rec go wrap (n : H.node) =
    List.iter
      (fun ir ->
        List.iter
          (fun n' -> acc := (ir.rule.name, wrap n') :: !acc)
          (apply_rule catalog ir n))
      rules;
    Array.iteri (fun i kid -> go (fun kid' -> wrap (H.rebuild n i kid')) kid) n.H.kids
  in
  go Fun.id n;
  List.rev !acc

type exploration = {
  nodes : H.node list;  (** insertion order; head is the input tree *)
  logical_exercised : SSet.t;
  count : int;
  truncated : bool;  (** the tree budget cut the closure short *)
  fired : (string * int) list;  (** novel trees admitted, per rule *)
}

(* Firing tally of one exploration: per rule name, how many rewrites
   were admitted as {e novel} trees (attempts and rewrites count
   applications; fired counts rewrites that actually grew the closure —
   the signal the discovery ranker consumes). Kept per exploration, not
   read back from the global counter, so a reused closure can replay
   exactly its own counts whatever other domains do meanwhile. *)
let note_fired tally name =
  match Hashtbl.find_opt tally name with
  | Some n -> incr n
  | None -> Hashtbl.add tally name (ref 1)

let fired_of tally = Hashtbl.fold (fun name n acc -> (name, !n) :: acc) tally []

let add_fired fired =
  if Obs.Metrics.enabled () then
    List.iter
      (fun (name, n) ->
        Obs.Metrics.add (Obs.Metrics.counter ~label:name "optimizer.rule.fired") n)
      fired

(* The counters one logical exploration feeds, whether it ran or was
   served from the reusable closure: [Framework.invocations], fired and
   trees keep counting calls, not work. *)
let account (x : exploration) ~max_trees =
  Obs.Metrics.add (Obs.Metrics.counter "optimizer.explore.trees") x.count;
  add_fired x.fired;
  if x.truncated then begin
    Obs.Metrics.incr (Obs.Metrics.counter "optimizer.explore.budget_exhausted");
    Obs.Trace.instant "explore.budget_exhausted"
      ~args:[ ("max_trees", Obs.Json.Int max_trees) ]
  end

(* The closure loop, from the interned input [n0]. [rewrites] enumerates
   the rewrites of one tree: [node_rewrites] (memo replay) in production,
   the per-tree recomputation behind [Reference.optimize]. *)
let explore ~rewrites ~options (n0 : H.node) : exploration =
  (* Resolved once per call, not per rewrite: registry lookups stay out
     of the closure loop, and a [Metrics.clear] between calls cannot
     leave us holding instruments the registry no longer knows about. *)
  let queue_depth_gauge = Obs.Metrics.gauge "optimizer.explore.queue_depth" in
  let tally = Hashtbl.create 16 in
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
            note_fired tally name;
            Obs.Metrics.gauge_max queue_depth_gauge
              (float_of_int (Queue.length queue));
            incr count
          end
          else
            (* A novel tree was dropped on the floor: the closure is
               truncated, whatever the queue looks like afterwards. *)
            truncated := true
        end)
      (rewrites n)
  done;
  { nodes = List.rev !order;
    logical_exercised = !exercised;
    count = !count;
    truncated = !truncated || not (Queue.is_empty queue);
    fired = fired_of tally }

(* ------------------------------------------------------------------ *)
(* The cross-call rewrite memo                                         *)
(* ------------------------------------------------------------------ *)

(* What applying every rule of the list at the root of one node gave.
   The shape holds everything but the rewritten nodes: the rule of each
   rewrite, in registry order, the rules whose pattern accepted the
   root (recorded with the caller's collector suspended, replayed on
   every use) and the rules whose body raised (re-raised when enabled,
   as the direct application would have). Few distinct shapes occur, so
   they are interned, and roots without rewrites share one entry per
   shape: an entry costs its [nodes] array and little else. *)
type shape = {
  names : string array;  (** rule of [nodes.(i)] *)
  matched : string list;
  raised : (string * exn) list;
}

type root_entry = { shape : shape; nodes : H.node array }

(* The last production exploration of a domain, served again to an
   identical call (same input, budget, growth cap and disabled set)
   with its own counts and matched-rule names. *)
type reusable = {
  r_input : int;
  r_max_trees : int;
  r_max_growth : int;
  r_disabled : SSet.t;
  r_exploration : exploration;
  r_matched : string list;
}

(* One memo per domain, for one (catalog, rule list) pair at a time —
   compared physically, and replaced when either changes. [roots] maps
   a hash-cons id to its [root_entry] under every rule of the list, so
   one memo serves the all-rules exploration and every [¬R]. It holds
   nodes of this domain's hash-cons table, so [Hashcons.clear] drops it;
   past [roots_cap] entries it starts over. *)
type memo = {
  m_catalog : Storage.Catalog.t option;
  m_rules : Rule.t list;
  roots : (int, root_entry) Hashtbl.t;
  shapes : (string array * string list, root_entry) Hashtbl.t;
      (** interned shapes, each with an empty [nodes] *)
  mutable last : reusable option;
}

let roots_cap = 1 lsl 18

let new_memo ?catalog ?(rules = []) size =
  { m_catalog = catalog;
    m_rules = rules;
    roots = Hashtbl.create size;
    shapes = Hashtbl.create (min size 64);
    last = None }

let memo_key = Domain.DLS.new_key (fun () -> new_memo 1)
let drop_memo () = Domain.DLS.set memo_key (new_memo 1)
let () = H.on_clear drop_memo
let memo_entries () = Hashtbl.length (Domain.DLS.get memo_key).roots

let memo_for catalog rules =
  let m = Domain.DLS.get memo_key in
  match m.m_catalog with
  | Some c when c == catalog && m.m_rules == rules -> m
  | _ ->
    let m = new_memo ~catalog ~rules 4096 in
    Domain.DLS.set memo_key m;
    m

(* The rewrite service of one exploration. Root rewrites come from the
   cross-call memo, filtered by the disabled set; the whole-tree list of
   each distinct subtree is assembled once per exploration from its
   children's lists with [H.rebuild] — O(1) per rewrite instead of a
   fresh rule sweep of the subtree (Cascades-memo behaviour). *)
type rewriter = {
  rw_catalog : Storage.Catalog.t;
  rw_rules : instrumented_rule list Lazy.t;  (** every rule, in order *)
  rw_disabled : SSet.t;
  rw_memo : memo;
  rw_local : (int, (string * H.node) list) Hashtbl.t;
  rw_matched : (string, unit) Hashtbl.t;  (** enabled rules matched *)
  rw_hits : Obs.Metrics.counter;
  rw_misses : Obs.Metrics.counter;
}

let make_rewriter memo catalog options rules =
  { rw_catalog = catalog;
    rw_rules = lazy (List.map instrument_rule rules);
    rw_disabled = options.disabled;
    rw_memo = memo;
    rw_local = Hashtbl.create 1024;
    rw_matched = Hashtbl.create 16;
    rw_hits = Obs.Metrics.counter "optimizer.rewrite_memo.hits";
    rw_misses = Obs.Metrics.counter "optimizer.rewrite_memo.misses" }

let root_entry rw (n : H.node) =
  let m = rw.rw_memo in
  match Hashtbl.find_opt m.roots n.H.id with
  | Some e ->
    Obs.Metrics.incr rw.rw_hits;
    e
  | None ->
    Obs.Metrics.incr rw.rw_misses;
    let (rewrites, raised), matched =
      Rule.collect_matched @@ fun () ->
      List.fold_left
        (fun (acc, raised) ir ->
          match apply_rule rw.rw_catalog ir n with
          | out -> (List.fold_left (fun acc n' -> (ir.rule.name, n') :: acc) acc out, raised)
          | exception e -> (acc, (ir.rule.name, e) :: raised))
        ([], []) (Lazy.force rw.rw_rules)
    in
    let rewrites = Array.of_list (List.rev rewrites) in
    let names = Array.map fst rewrites and nodes = Array.map snd rewrites in
    let e =
      match raised with
      | _ :: _ -> { shape = { names; matched; raised = List.rev raised }; nodes }
      | [] ->
        let proto =
          match Hashtbl.find_opt m.shapes (names, matched) with
          | Some p -> p
          | None ->
            let p = { shape = { names; matched; raised = [] }; nodes = [||] } in
            Hashtbl.add m.shapes (names, matched) p;
            p
        in
        if Array.length nodes = 0 then proto else { proto with nodes }
    in
    if Hashtbl.length m.roots >= roots_cap then begin
      Hashtbl.reset m.roots;
      Hashtbl.reset m.shapes
    end;
    Hashtbl.replace m.roots n.H.id e;
    e

let rec node_rewrites rw (n : H.node) : (string * H.node) list =
  match Hashtbl.find_opt rw.rw_local n.H.id with
  | Some r -> r
  | None ->
    let { shape; nodes } = root_entry rw n in
    let enabled name = not (SSet.mem name rw.rw_disabled) in
    (match List.find_opt (fun (name, _) -> enabled name) shape.raised with
    | Some (_, exn) -> raise exn
    | None -> ());
    List.iter
      (fun name -> if enabled name then Hashtbl.replace rw.rw_matched name ())
      shape.matched;
    let below = ref [] in
    Array.iteri
      (fun i kid ->
        List.iter
          (fun (name, kid') -> below := (name, H.rebuild n i kid') :: !below)
          (node_rewrites rw kid))
      n.H.kids;
    (* Root rewrites first, then the children's, left to right. Dropping
       disabled rules' rewrites keeps the registry order of the rest: the
       list direct application of the enabled rules gives. *)
    let r = ref (List.rev !below) in
    for i = Array.length nodes - 1 downto 0 do
      if enabled shape.names.(i) then r := (shape.names.(i), nodes.(i)) :: !r
    done;
    Hashtbl.replace rw.rw_local n.H.id !r;
    !r

(* Close a production exploration: record the matched rules into the
   caller's collector and sample the table gauges. *)
let finish_rewriter rw =
  let matched = Hashtbl.fold (fun name () acc -> name :: acc) rw.rw_matched [] in
  Rule.record_matched matched;
  Obs.Metrics.gauge_set
    (Obs.Metrics.gauge "optimizer.hashcons.nodes")
    (float_of_int (H.live_nodes ()));
  if Obs.Metrics.enabled () then begin
    (* Occupancy gauges: table *shape*, sampled once per explore (the
       snapshot scans buckets, so keep it off the rewrite loop). *)
    let occ = H.occupancy () in
    Obs.Metrics.gauge_set
      (Obs.Metrics.gauge "relalg.hashcons.load_factor")
      occ.H.load_factor;
    Obs.Metrics.gauge_max
      (Obs.Metrics.gauge "relalg.hashcons.longest_chain")
      (float_of_int occ.H.longest_chain);
    Obs.Metrics.gauge_set
      (Obs.Metrics.gauge "optimizer.rewrite_memo.entries")
      (float_of_int (Hashtbl.length rw.rw_memo.roots))
  end;
  matched

(* The production exploration: the previous closure when the call is
   identical to the one that built it, else a fresh closure over the
   memo. Either way the call is accounted as one exploration. *)
let explore_memo ~options ~rules catalog (n0 : H.node) =
  let m = memo_for catalog rules in
  let x =
    match m.last with
    | Some l
      when l.r_input = n0.H.id
           && l.r_max_trees = options.max_trees
           && l.r_max_growth = options.max_growth
           && SSet.equal l.r_disabled options.disabled ->
      if Obs.Metrics.enabled () then
        Obs.Metrics.incr (Obs.Metrics.counter "optimizer.explore.reused");
      Rule.record_matched l.r_matched;
      l.r_exploration
    | _ ->
      let rw = make_rewriter m catalog options rules in
      let x = explore ~rewrites:(node_rewrites rw) ~options n0 in
      m.last <-
        Some
          { r_input = n0.H.id;
            r_max_trees = options.max_trees;
            r_max_growth = options.max_growth;
            r_disabled = options.disabled;
            r_exploration = x;
            r_matched = finish_rewriter rw };
      x
  in
  account x ~max_trees:options.max_trees;
  x

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
  impl_disabled : SSet.t;
  mutable impl_exercised : SSet.t;
  memo_hits : Obs.Metrics.counter;
  memo_misses : Obs.Metrics.counter;
}

let log2 x = Float.max 1.0 (Float.log (x +. 2.0) /. Float.log 2.0)

(* Paired equi-join keys and the residual predicate. *)
let equi_keys p pred left right =
  let lids = Props.Node.output_idents p.catalog left in
  let rids = Props.Node.output_idents p.catalog right in
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
    impl_disabled = options.disabled;
    impl_exercised = SSet.empty;
    memo_hits = Obs.Metrics.counter "optimizer.memo.hits";
    memo_misses = Obs.Metrics.counter "optimizer.memo.misses" }

let optimize_with ~explore ?(options = default_options) ?(rules = Rules.all) catalog
    t0 =
  let n0 = H.intern t0 in
  match Props.Node.validate catalog n0 with
  | Error e -> Error ("invalid input tree: " ^ e)
  | Ok () ->
    let exploration =
      Obs.Trace.with_span "engine.explore"
        ~args:[ ("max_trees", Obs.Json.Int options.max_trees) ]
        (fun () -> explore ~options ~rules catalog n0)
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
   pass, fed by [rewrites_unmemoized] instead of the memo replay, and
   neither reading nor filling the cross-call memo. *)
module Reference = struct
  let explore ~options ~rules catalog n0 =
    let enabled =
      List.filter_map
        (fun (r : Rule.t) ->
          if SSet.mem r.name options.disabled then None else Some (instrument_rule r))
        rules
    in
    let x = explore ~rewrites:(rewrites_unmemoized catalog enabled) ~options n0 in
    account x ~max_trees:options.max_trees;
    x

  let optimize ?options ?rules catalog t0 =
    optimize_with ~explore ?options ?rules catalog t0
end

let optimize ?options ?rules catalog t0 =
  optimize_with ~explore:explore_memo ?options ?rules catalog t0

let ruleset ?(options = default_options) ?(rules = Rules.all) catalog t0 =
  let n0 = H.intern t0 in
  match Props.Node.validate catalog n0 with
  | Error e -> Error ("invalid input tree: " ^ e)
  | Ok () ->
    let exploration =
      Obs.Trace.with_span "engine.explore"
        ~args:[ ("max_trees", Obs.Json.Int options.max_trees) ]
        (fun () -> explore_memo ~options ~rules catalog n0)
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
  let n0 = H.intern t0 in
  match Props.Node.validate catalog n0 with
  | Error e -> Error ("invalid input tree: " ^ e)
  | Ok () ->
    Obs.Metrics.incr (Obs.Metrics.counter "optimizer.shared.explorations");
    Obs.Trace.with_span "engine.explore_shared"
      ~args:[ ("max_trees", Obs.Json.Int options.max_trees) ]
    @@ fun () ->
    let rw = make_rewriter (memo_for catalog rules) catalog options rules in
    let tally = Hashtbl.create 16 in
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
                note_fired tally name;
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
    ignore (finish_rewriter rw : string list);
    add_fired (fired_of tally);
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
