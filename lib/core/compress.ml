type edge_costs = {
  fw : Framework.t;
  suite : Suite.t;
  targets : Suite.target array;
  memo : (int * int, float) Hashtbl.t;
  shared : (Framework.shared, string) result option array;
      (* per query index: None = not explored yet; Some (Error _) = the
         query is invalid, so every edge of its column is infinite *)
  computed_c : Obs.Metrics.counter;
  memo_hit_c : Obs.Metrics.counter;
  (* Warm-start tier: edges loaded from a prior run's spilled matrix.
     Serving an edge from here still counts as one edge computation — the
     paper's abstract unit of optimizer work — so cold and warm runs
     produce byte-identical solutions; only the *concrete* work
     (explorations, costing passes, wall time) collapses. *)
  warm : (int * int, float) Hashtbl.t;
  disk : (Storage.Diskcache.t * string) option;
  disk_served_c : Obs.Metrics.counter;
  (* Per-query-column dependency sets: the names of every rule whose
     pattern matched while computing this column's edges (the shared
     exploration). A rule absent from a column's set cannot change that
     column's costs through a body-only edit — the reuse criterion the
     incremental manifest applies. Only columns with at least one
     computed edge appear. *)
  deps : (int, string list) Hashtbl.t;
  mutable computed_n : int;
  mutable warm_n : int;
  mutable stored_at : int option;  (** [computed_n] at the last spill *)
}

let matrix_ns = "matrix"

(* The spill key ties a matrix to everything its costs depend on: the
   catalog (schema + data), the rule set, and the suite's exact queries,
   targets, and shape (k). Any drift — new seed, new scale, edited rule,
   regenerated suite — changes the key and the old entry is ignored.
   Rules contribute their *content fingerprint*, not their name: editing
   a rule's definition under an unchanged name (fault injection, a DSL
   term edit) must change the key, or a warm run would
   serve edge costs computed with the old body. *)
let matrix_key fw (suite : Suite.t) =
  let combine h k = ((h * 65599) + k) land max_int in
  let h = Storage.Catalog.content_hash (Framework.catalog fw) in
  let h =
    List.fold_left
      (fun h (r : Optimizer.Rule.t) -> combine h (Hashtbl.hash r.fingerprint))
      h (Framework.rules fw)
  in
  let h = combine h suite.k in
  let h =
    List.fold_left
      (fun h t -> combine h (Hashtbl.hash (Suite.target_name t)))
      h suite.targets
  in
  let h =
    Array.fold_left
      (fun h (e : Suite.entry) ->
        combine (combine h (Relalg.Logical.hash e.query))
          (Hashtbl.hash e.cost))
      h suite.entries
  in
  let h =
    List.fold_left
      (fun h (t, picks) ->
        List.fold_left combine (combine h (Hashtbl.hash (Suite.target_name t)))
          picks)
      h suite.per_target
  in
  Printf.sprintf "matrix-%x" h

let disk_loaded_c = Obs.Metrics.counter "compress.matrix.disk_edges_loaded"

let edge_costs ?disk ?(warm_edges = []) fw (suite : Suite.t) =
  let warm = Hashtbl.create 256 in
  let disk =
    match disk with
    | None -> None
    | Some dc ->
      let key = matrix_key fw suite in
      (match
         (Storage.Diskcache.load dc ~ns:matrix_ns ~key
           : ((int * int) * float) array option)
       with
      | Some edges ->
        Array.iter (fun (p, c) -> Hashtbl.replace warm p c) edges;
        if Obs.Metrics.enabled () then
          Obs.Metrics.add disk_loaded_c (Array.length edges)
      | None -> ());
      Some (dc, key)
  in
  (* Manifest-supplied surviving cells (incremental maintenance). They
     land in the same warm tier as a disk-loaded matrix, so serving them
     keeps the cold-run accounting and solutions byte-identical. *)
  List.iter (fun (p, c) -> Hashtbl.replace warm p c) warm_edges;
  { fw;
    suite;
    targets = Array.of_list suite.targets;
    memo = Hashtbl.create 256;
    shared = Array.make (Array.length suite.entries) None;
    computed_c = Obs.Metrics.counter "compress.edge_cost.computed";
    memo_hit_c = Obs.Metrics.counter "compress.edge_cost.memo_hits";
    warm;
    disk;
    disk_served_c = Obs.Metrics.counter "compress.matrix.disk_served";
    deps = Hashtbl.create 64;
    computed_n = 0;
    warm_n = 0;
    stored_at = None }

(* Every cell this service knows: computed this run or inherited warm. *)
let known ec =
  let union = Hashtbl.copy ec.memo in
  Hashtbl.iter
    (fun p c -> if not (Hashtbl.mem union p) then Hashtbl.replace union p c)
    ec.warm;
  Hashtbl.to_seq union

(* Spills on the first call, then only when a cell was computed since
   the last spill: the algorithms sharing one service each call this,
   and re-marshalling an unchanged matrix is pure waste. Last-writer-wins
   under the same key is benign: both writers computed the same costs. *)
let save_matrix ec =
  match ec.disk with
  | Some (dc, key) when ec.stored_at <> Some ec.computed_n ->
    ignore (Storage.Diskcache.store dc ~ns:matrix_ns ~key (Array.of_seq (known ec)));
    ec.stored_at <- Some ec.computed_n;
    Obs.Metrics.incr (Obs.Metrics.counter "compress.matrix.stores")
  | _ -> ()

let record_deps ec query_idx matched =
  match Hashtbl.find_opt ec.deps query_idx with
  | None -> Hashtbl.replace ec.deps query_idx matched
  | Some prev ->
    Hashtbl.replace ec.deps query_idx
      (List.sort_uniq String.compare (List.rev_append matched prev))

(* Warm edge: served straight into the memo — no exploration — with the
   same logical-work accounting a computed edge gets. *)
let serve_warm ec p c =
  Obs.Metrics.incr ec.disk_served_c;
  ec.warm_n <- ec.warm_n + 1;
  Hashtbl.replace ec.memo p c

(* [Cost(q, ¬R)] for query [qi] against each target of [tis]: a filtered
   re-costing pass over the query's one shared exploration (explored here
   unless [ec.shared] already holds it). The exploration fails only when
   the query itself is invalid, and then every [Cost(q, ¬R)] optimization
   would fail the same validity check, so the column's edges are
   infinite. Runs under a matched-rule collector, so the returned deps
   are the column's dependency set: every rule whose body the
   exploration could have consulted. Writes nothing in [ec] (only the
   framework's atomic counters), so [prefetch] workers can run it in
   parallel; [store_column] merges the result. *)
let compute_column ec qi tis =
  let (sh, edges), deps =
    Framework.with_matched @@ fun () ->
    let sh =
      match ec.shared.(qi) with
      | Some r -> r
      | None -> Framework.explore_shared ec.fw ec.suite.entries.(qi).query
    in
    let cost_of ti =
      let disabled = Suite.rules_of ec.targets.(ti) in
      match Result.bind sh (Framework.shared_cost ec.fw ~disabled) with
      | Ok c -> c
      | Error _ -> Float.infinity
    in
    (sh, List.map (fun ti -> (ti, cost_of ti)) tis)
  in
  (qi, sh, edges, deps)

let store_column ec (qi, sh, edges, deps) =
  if ec.shared.(qi) = None then ec.shared.(qi) <- Some sh;
  record_deps ec qi deps;
  List.iter
    (fun (ti, c) ->
      if not (Hashtbl.mem ec.memo (ti, qi)) then begin
        Obs.Metrics.incr ec.computed_c;
        ec.computed_n <- ec.computed_n + 1;
        Hashtbl.replace ec.memo (ti, qi) c
      end)
    edges

let edge_cost ec ~target_idx ~query_idx =
  let p = (target_idx, query_idx) in
  match Hashtbl.find_opt ec.memo p with
  | Some c ->
    Obs.Metrics.incr ec.memo_hit_c;
    c
  | None ->
    (match Hashtbl.find_opt ec.warm p with
    | Some c -> serve_warm ec p c
    | None -> store_column ec (compute_column ec query_idx [ target_idx ]));
    Hashtbl.find ec.memo p

(* The paper's abstract unit of optimizer work (Figure 14) is one edge,
   however it is served: a filtered re-costing pass over the query's one
   shared exploration, or a warm edge loaded from a prior run. The
   concrete invocation count is [Framework.invocations]. *)
let invocations_used ec = ec.computed_n + ec.warm_n
let computed_edges ec = ec.computed_n
let warm_served_edges ec = ec.warm_n

(* Sorted for determinism; the incremental manifest persists this. *)
let snapshot ec = List.sort compare (List.of_seq (known ec))

let column_deps ec =
  List.sort compare (List.of_seq (Hashtbl.to_seq ec.deps))

(* Parallel edge-matrix fill. The pair list is partitioned by query
   index — one task per query column — so each task owns one query's
   shared exploration and every edge it computes; tasks share nothing
   but the (read-only) suite and the framework, whose counters are
   atomic. Workers return pure results; the merge into [memo]/[shared]
   and the edge counts happens on the calling domain in task order, so
   the memo contents and the computed-edge count are identical to a
   sequential fill of the same pairs — [Par.Pool.sequential] is the
   reference. *)
let prefetch ?(pool = Par.Pool.sequential) ec pairs =
  let seen = Hashtbl.create 64 in
  let cols : (int, int list ref) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (ti, qi) ->
      if
        (not (Hashtbl.mem ec.memo (ti, qi))) && not (Hashtbl.mem seen (ti, qi))
      then begin
        Hashtbl.replace seen (ti, qi) ();
        match Hashtbl.find_opt ec.warm (ti, qi) with
        | Some c -> serve_warm ec (ti, qi) c
        | None -> (
          match Hashtbl.find_opt cols qi with
          | Some l -> l := ti :: !l
          | None ->
            Hashtbl.replace cols qi (ref [ ti ]);
            order := qi :: !order)
      end)
    pairs;
  let columns =
    List.rev_map (fun qi -> (qi, List.rev !(Hashtbl.find cols qi))) !order
  in
  List.iter (store_column ec)
    (Par.Pool.map_list pool (fun (qi, tis) -> compute_column ec qi tis) columns)

type solution = {
  assignment : (Suite.target * (int * float) list) list;
  total_cost : float;
  invocations : int;
  under_covered : (Suite.target * int) list;
}

let node_cost (suite : Suite.t) i = suite.entries.(i).cost

(* A solution under-covers a target when it assigns fewer than k queries
   — the suite simply has no k covering queries for it. Silently
   clamping (as smc's [need] array must, to terminate) hid this; now
   every algorithm reports the deficit so callers can regenerate with a
   bigger budget instead of trusting a weaker-than-requested suite. *)
let under_coverage (suite : Suite.t) assignment =
  List.filter_map
    (fun (target, picks) ->
      let deficit = suite.k - List.length picks in
      if deficit > 0 then Some (target, deficit) else None)
    assignment

(* Every algorithm runs under a span and publishes its outcome as
   gauges, so a compression run's cost/invocation trade-off (Figures
   11-14) is readable straight off a trace or metrics snapshot. *)
let algo_span name (suite : Suite.t) f =
  Obs.Trace.with_span ("compress." ^ name)
    ~args:
      [ ("targets", Obs.Json.Int (List.length suite.targets));
        ("queries", Obs.Json.Int (Array.length suite.entries));
        ("k", Obs.Json.Int suite.k) ]
    (fun () ->
      let sol = f () in
      Obs.Metrics.gauge_set
        (Obs.Metrics.gauge ~label:name "compress.total_cost")
        sol.total_cost;
      Obs.Metrics.gauge_set
        (Obs.Metrics.gauge ~label:name "compress.invocations")
        (float_of_int sol.invocations);
      Obs.Metrics.gauge_set
        (Obs.Metrics.gauge ~label:name "compress.under_covered_targets")
        (float_of_int (List.length sol.under_covered));
      sol)

(* Shared-execution objective: distinct node costs once + all edge costs. *)
let assignment_cost (suite : Suite.t) assignment =
  let used = Hashtbl.create 16 in
  let node_total = ref 0.0 in
  let edge_total = ref 0.0 in
  List.iter
    (fun (_, picks) ->
      List.iter
        (fun (q, ecost) ->
          edge_total := !edge_total +. ecost;
          if not (Hashtbl.mem used q) then begin
            Hashtbl.replace used q ();
            node_total := !node_total +. node_cost suite q
          end)
        picks)
    assignment;
  !node_total +. !edge_total

let solution_cost suite sol = assignment_cost suite sol.assignment

(* One algorithm's requests against a service that may be shared with
   other algorithms or pre-warmed. Every distinct edge the algorithm asks
   for counts once into its [invocations] — the count a fresh service
   would report — so the solution does not depend on what the service
   had already computed. *)
type requests = { ec : edge_costs; requested : (int * int, unit) Hashtbl.t }

let requests ?ec fw suite =
  { ec = (match ec with Some ec -> ec | None -> edge_costs fw suite);
    requested = Hashtbl.create 64 }

let cost r ti qi =
  Hashtbl.replace r.requested (ti, qi) ();
  edge_cost r.ec ~target_idx:ti ~query_idx:qi

let solve r (suite : Suite.t) assignment ~total_cost =
  save_matrix r.ec;
  { assignment;
    total_cost;
    invocations = Hashtbl.length r.requested;
    under_covered = under_coverage suite assignment }

(* ------------------------------------------------------------------ *)
(* BASELINE (§2.3): every target executes its own generated queries,    *)
(* without sharing Plan(q) runs across targets.                         *)
(* ------------------------------------------------------------------ *)

let baseline ?pool ?ec fw (suite : Suite.t) =
  algo_span "baseline" suite @@ fun () ->
  let r = requests ?ec fw suite in
  let tindex =
    List.mapi (fun i (t, _) -> (t, i)) suite.per_target
  in
  prefetch ?pool r.ec
    (List.concat_map
       (fun (target, indices) ->
         let ti = List.assoc target tindex in
         List.map (fun q -> (ti, q)) indices)
       suite.per_target);
  let assignment =
    List.map
      (fun (target, indices) ->
        let ti = List.assoc target tindex in
        (target, List.map (fun q -> (q, cost r ti q)) indices))
      suite.per_target
  in
  (* Unshared semantics: node costs counted per (target, query) pick. *)
  let total =
    List.fold_left
      (fun acc (_, picks) ->
        List.fold_left
          (fun acc (q, ecost) -> acc +. node_cost suite q +. ecost)
          acc picks)
      0.0 assignment
  in
  solve r suite assignment ~total_cost:total

(* ------------------------------------------------------------------ *)
(* Greedy Constrained Set-Multicover (Figure 5)                         *)
(* ------------------------------------------------------------------ *)

let smc ?pool ?ec fw (suite : Suite.t) =
  algo_span "smc" suite @@ fun () ->
  let iterations_c = Obs.Metrics.counter "compress.smc.iterations" in
  let targets = Array.of_list suite.targets in
  let nt = Array.length targets in
  let nq = Array.length suite.entries in
  let covers_q = Array.init nq (fun _ -> []) in
  Array.iteri
    (fun ti target ->
      List.iter
        (fun q -> covers_q.(q) <- ti :: covers_q.(q))
        (Suite.covering suite target))
    targets;
  let need = Array.make nt suite.k in
  (* A target with fewer covering queries than k can never be satisfied;
     clamp so the loop terminates. *)
  Array.iteri
    (fun ti target ->
      need.(ti) <- min need.(ti) (List.length (Suite.covering suite target)))
    targets;
  let picked = Array.make nq false in
  let assignment = Array.make nt [] in
  let remaining ti = need.(ti) > 0 in
  let continue_ = ref true in
  while !continue_ do
    let best = ref None in
    for q = 0 to nq - 1 do
      if not picked.(q) then begin
        let gain = List.length (List.filter remaining covers_q.(q)) in
        if gain > 0 then
          let benefit = float_of_int gain /. Float.max 1e-9 (node_cost suite q) in
          match !best with
          | Some (_, b) when b >= benefit -> ()
          | _ -> best := Some (q, benefit)
      end
    done;
    match !best with
    | None -> continue_ := false
    | Some (q, _) ->
      Obs.Metrics.incr iterations_c;
      picked.(q) <- true;
      List.iter
        (fun ti ->
          if remaining ti then begin
            need.(ti) <- need.(ti) - 1;
            assignment.(ti) <- q :: assignment.(ti)
          end)
        covers_q.(q)
  done;
  (* SMC never looks at edge costs while choosing; they are computed once
     afterwards to evaluate the solution, as when executing it. *)
  let r = requests ?ec fw suite in
  prefetch ?pool r.ec
    (List.concat
       (Array.to_list
          (Array.mapi
             (fun ti picks -> List.rev_map (fun q -> (ti, q)) picks)
             assignment)));
  let assignment =
    Array.to_list
      (Array.mapi
         (fun ti picks ->
           (targets.(ti), List.rev_map (fun q -> (q, cost r ti q)) picks))
         assignment)
  in
  solve r suite assignment ~total_cost:(assignment_cost suite assignment)

(* ------------------------------------------------------------------ *)
(* TopKIndependent (Figure 6), optionally with monotonicity (§5.3.1)    *)
(* ------------------------------------------------------------------ *)

(* Bounded max-queue of (edge_cost, query) keeping the k cheapest.
   Ordered by (cost, query index), so equal-cost ties evict the larger
   query index: the kept set — and therefore the whole solution — is a
   function of the edge costs alone, not of insertion order. (The old
   cost-only comparator let [List.merge]'s placement of ties decide,
   which made solutions depend on scan order.) *)
module Kqueue = struct
  type t = { k : int; mutable items : (float * int) list (* descending *) }

  let create k = { k; items = [] }
  let size q = List.length q.items
  let max_cost q = match q.items with [] -> Float.infinity | (c, _) :: _ -> c

  let push q cost query =
    let items =
      List.merge
        (fun (a, qa) (b, qb) -> compare (b, qb) (a, qa))
        [ (cost, query) ] q.items
    in
    q.items <-
      (if List.length items > q.k then List.tl items else items)

  let contents q = List.rev_map (fun (c, i) -> (i, c)) q.items
end

let topk ?(exploit_monotonicity = false) ?pool ?ec fw (suite : Suite.t) =
  algo_span (if exploit_monotonicity then "topk_mono" else "topk") suite @@ fun () ->
  let pruned_c = Obs.Metrics.counter "compress.topk.pruned_edges" in
  let r = requests ?ec fw suite in
  let targets = Array.of_list suite.targets in
  (* The naive variant computes every (target, covering query) edge, so
     the whole matrix can be prefetched in parallel. The monotonicity
     variant stays sequential: which edges it computes depends on the
     costs of earlier ones (that adaptivity is the point of §5.3.1). *)
  if not exploit_monotonicity then
    prefetch ?pool r.ec
      (List.concat
         (Array.to_list
            (Array.mapi
               (fun ti target ->
                 List.map (fun q -> (ti, q)) (Suite.covering suite target))
               targets)));
  let assignment =
    Array.to_list
      (Array.mapi
         (fun ti target ->
           let w = Suite.covering suite target in
           let queue = Kqueue.create suite.k in
           if exploit_monotonicity then begin
             (* Scan in increasing node cost; once the queue holds k edges
                all cheaper than the next node cost, no later edge can
                improve it, since Cost(q) <= Cost(q, negated R). *)
             let sorted =
               List.sort
                 (fun a b -> compare (node_cost suite a) (node_cost suite b))
                 w
             in
             let rec scan = function
               | [] -> ()
               | q :: rest ->
                 if
                   Kqueue.size queue >= suite.k
                   && node_cost suite q >= Kqueue.max_cost queue
                 then begin
                   (* Monotonicity pruned this edge and everything after
                      it — the saving Figure 14 measures. *)
                   if Obs.Metrics.enabled () then
                     Obs.Metrics.add pruned_c (1 + List.length rest)
                 end
                 else begin
                   Kqueue.push queue (cost r ti q) q;
                   scan rest
                 end
             in
             scan sorted
           end
           else
             List.iter (fun q -> Kqueue.push queue (cost r ti q) q) w;
           (target, Kqueue.contents queue))
         targets)
  in
  solve r suite assignment ~total_cost:(assignment_cost suite assignment)
