(* Test-suite generation, the compression algorithms, the exact matching
   variant, and correctness validation with fault injection. *)
module F = Core.Framework
module Su = Core.Suite
module C = Core.Compress

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let cat = Storage.Datagen.tpch ~scale:0.001 ()

let quick_options = { Optimizer.Engine.default_options with max_trees = 400 }

(* One shared suite for the compression tests (built once: generation is
   the expensive part). *)
let fw = F.create ~options:quick_options cat
let g = Storage.Prng.create 7

let rules6 =
  [ "JoinCommute"; "PushSelectBelowJoin"; "SelectMerge"; "MergeSelectIntoJoin";
    "JoinAssocLeft"; "SimplifyLeftOuterJoin" ]

let suite6 : Su.t =
  Su.generate fw g ~targets:(List.map (fun r -> Su.Single r) rules6) ~k:3

let test_targets_helpers () =
  check int_t "nC2 pairs" 10 (List.length (Su.all_pairs [ "a"; "b"; "c"; "d"; "e" ]));
  check (Alcotest.string) "pair name" "a+b" (Su.target_name (Su.Pair ("a", "b")));
  check (Alcotest.list Alcotest.string) "rules of pair" [ "a"; "b" ]
    (Su.rules_of (Su.Pair ("a", "b")))

let test_suite_shape () =
  check int_t "six targets" 6 (List.length suite6.targets);
  check bool_t "entries non-empty" true (Array.length suite6.entries > 0);
  (* every generated query for a target exercises it *)
  List.iter
    (fun (target, indices) ->
      let rules = Su.rules_of target in
      List.iter
        (fun i ->
          check bool_t (Su.target_name target ^ " exercised") true
            (List.for_all
               (fun r -> F.SSet.mem r suite6.entries.(i).ruleset)
               rules))
        indices)
    suite6.per_target;
  (* per-target indices are distinct *)
  List.iter
    (fun (_, indices) ->
      check int_t "distinct per target" (List.length indices)
        (List.length (List.sort_uniq compare indices)))
    suite6.per_target

let test_covering_superset () =
  List.iter
    (fun (target, indices) ->
      let cov = Su.covering suite6 target in
      List.iter
        (fun i -> check bool_t "generated covered" true (List.mem i cov))
        indices)
    suite6.per_target

let test_edge_cost_service () =
  let ec = C.edge_costs fw suite6 in
  check int_t "starts at zero" 0 (C.invocations_used ec);
  let c1 = C.edge_cost ec ~target_idx:0 ~query_idx:0 in
  check int_t "one invocation" 1 (C.invocations_used ec);
  let c1' = C.edge_cost ec ~target_idx:0 ~query_idx:0 in
  check int_t "memoized" 1 (C.invocations_used ec);
  check bool_t "same value" true (c1 = c1');
  (* monotonicity: edge cost >= node cost *)
  check bool_t "edge >= node" true (c1 >= suite6.entries.(0).cost -. 1e-9)

let solution_covers (sol : C.solution) (suite : Su.t) =
  List.for_all
    (fun (target, picks) ->
      let available = List.length (Su.covering suite target) in
      let expected = min suite.k available in
      List.length picks >= expected
      && List.length (List.sort_uniq compare (List.map fst picks)) = List.length picks)
    sol.assignment

let baseline_sol = C.baseline fw suite6
let smc_sol = C.smc fw suite6
let topk_sol = C.topk fw suite6
let topk_mono_sol = C.topk ~exploit_monotonicity:true fw suite6

(* Warm-start determinism: a run that loads every edge from a spilled
   matrix must produce the same solution, the same logical invocation
   count — and do (almost) no optimizer work. Sharing one service across
   all four algorithms, cold or warm, must not change any solution
   either: each algorithm's [invocations] counts only the edges it
   requested. The order (TOPK+mono first, BASELINE last) is the one in
   which a cumulative count would inflate every later solution. *)
let test_warm_matrix_identical () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qtr-test-matrix-%d" (Unix.getpid ()))
  in
  let dc = Storage.Diskcache.create ~dir () in
  let i0 = F.invocations fw in
  let cold = C.topk ~ec:(C.edge_costs ~disk:dc fw suite6) fw suite6 in
  let i1 = F.invocations fw in
  check bool_t "cold run spills the matrix" true
    (Storage.Diskcache.entries dc ~ns:"matrix" > 0);
  let warm = C.topk ~ec:(C.edge_costs ~disk:dc fw suite6) fw suite6 in
  let i2 = F.invocations fw in
  check bool_t "identical assignment" true (cold.assignment = warm.assignment);
  check bool_t "identical cost" true (cold.total_cost = warm.total_cost);
  check int_t "identical logical invocations" cold.invocations warm.invocations;
  check bool_t "matches the disk-free solution" true
    (topk_sol.assignment = warm.assignment
    && topk_sol.total_cost = warm.total_cost);
  check bool_t "cold run did optimizer work" true (i1 - i0 > 0);
  check int_t "warm run did none" 0 (i2 - i1);
  List.iter
    (fun (tier, ec) ->
      let mono = C.topk ~exploit_monotonicity:true ~ec fw suite6 in
      let topk = C.topk ~ec fw suite6 in
      let smc = C.smc ~ec fw suite6 in
      let baseline = C.baseline ~ec fw suite6 in
      List.iter
        (fun (name, (shared : C.solution), (fresh : C.solution)) ->
          let label what = Printf.sprintf "%s service: %s %s" tier name what in
          check bool_t (label "assignment") true (shared.assignment = fresh.assignment);
          check bool_t (label "total cost") true (shared.total_cost = fresh.total_cost);
          check int_t (label "invocations") fresh.invocations shared.invocations)
        [ ("TOPK+mono", mono, topk_mono_sol); ("TOPK", topk, topk_sol);
          ("SMC", smc, smc_sol); ("BASELINE", baseline, baseline_sol) ])
    [ ("shared", C.edge_costs fw suite6); ("warm shared", C.edge_costs ~disk:dc fw suite6) ]

(* Regression: the spilled-matrix key used to hash only rule NAMES, so
   editing a rule's body under an unchanged name kept the old key and a
   warm run served the stale matrix. The key now hashes rule-content
   fingerprints: same names + edited body must miss and recompute
   everything, while an identical registry still warm-starts fully. *)
let test_stale_matrix_on_rule_edit () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qtr-test-stale-%d" (Unix.getpid ()))
  in
  let nt = List.length suite6.targets and nq = Array.length suite6.entries in
  let fill ec =
    for ti = 0 to nt - 1 do
      for q = 0 to nq - 1 do
        ignore (C.edge_cost ec ~target_idx:ti ~query_idx:q)
      done
    done
  in
  let dc = Storage.Diskcache.create ~dir () in
  let ec1 = C.edge_costs ~disk:dc fw suite6 in
  fill ec1;
  C.save_matrix ec1;
  check int_t "seed run computed everything" (nt * nq) (C.computed_edges ec1);
  (* control: the identical registry warm-starts fully *)
  let ec2 = C.edge_costs ~disk:dc fw suite6 in
  fill ec2;
  check int_t "identical registry computes nothing" 0 (C.computed_edges ec2);
  check int_t "identical registry served warm" (nt * nq) (C.warm_served_edges ec2);
  (* the regression: same rule names, one body edited -> new fingerprint
     -> the spilled matrix must NOT be served *)
  let fw_edit =
    F.create ~options:quick_options
      ~rules:(Optimizer.Rules.simulate_edit "JoinCommute")
      cat
  in
  let ec3 = C.edge_costs ~disk:dc fw_edit suite6 in
  fill ec3;
  check int_t "edited body serves nothing stale" 0 (C.warm_served_edges ec3);
  check int_t "edited body recomputes everything" (nt * nq) (C.computed_edges ec3)

(* One compress run solves four algorithms over one shared service. Each
   [solve] may spill the matrix: the first always does, a later one only
   after newly computed cells. In the order `qtr compress` computes them
   (TOPK first, filling every covering edge) the run stores once; an
   algorithm that adds cells after a store stores again. *)
let test_matrix_stored_once () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let stores f =
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "qtr-test-stores-%d-%d" (Unix.getpid ()) (Random.bits ()))
    in
    let dc = Storage.Diskcache.create ~dir () in
    let before = Obs.Metrics.counter_total "compress.matrix.stores" in
    f (C.edge_costs ~disk:dc fw suite6);
    check bool_t "the matrix is spilled" true (Storage.Diskcache.entries dc ~ns:"matrix" > 0);
    Obs.Metrics.counter_total "compress.matrix.stores" - before
  in
  let run_order ec =
    ignore (C.topk ~ec fw suite6);
    ignore (C.topk ~exploit_monotonicity:true ~ec fw suite6);
    ignore (C.baseline ~ec fw suite6);
    ignore (C.smc ~ec fw suite6)
  in
  let once = stores run_order in
  let growing =
    stores (fun ec ->
        ignore (C.baseline ~ec fw suite6);
        ignore (C.topk ~ec fw suite6))
  in
  Obs.Metrics.set_enabled was;
  check int_t "four algorithms, one store" 1 once;
  check int_t "new cells after a store store again" 2 growing

let test_baseline () =
  check bool_t "covers" true
    (List.for_all
       (fun (t, picks) ->
         List.length picks = List.length (List.assoc t suite6.per_target))
       baseline_sol.assignment);
  check bool_t "positive cost" true (baseline_sol.total_cost > 0.0)

let test_smc () =
  check bool_t "smc covers" true (solution_covers smc_sol suite6);
  check bool_t "smc total consistent" true
    (abs_float (smc_sol.total_cost -. C.solution_cost suite6 smc_sol) < 1e-6)

let test_topk () =
  check bool_t "topk covers" true (solution_covers topk_sol suite6);
  (* TOPK picks per target the k cheapest edges: verify directly. *)
  let ec = C.edge_costs fw suite6 in
  let targets = Array.of_list suite6.targets in
  List.iter
    (fun (target, picks) ->
      let ti = ref (-1) in
      Array.iteri (fun i t -> if t = target then ti := i) targets;
      let all =
        List.map
          (fun q -> C.edge_cost ec ~target_idx:!ti ~query_idx:q)
          (Su.covering suite6 target)
        |> List.sort compare
      in
      let chosen = List.sort compare (List.map snd picks) in
      let rec prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs', y :: ys' -> abs_float (x -. y) < 1e-9 && prefix xs' ys'
        | _ -> false
      in
      check bool_t (Su.target_name target ^ " picks cheapest") true (prefix chosen all))
    topk_sol.assignment

let test_shared_vs_per_call_edges () =
  (* Shared and per-call edges are each upper bounds on the untruncated
     Cost(q, not R) but are incomparable to each other once the budget
     truncates (the shared all-rules frontier differs from the not-R
     frontier). What IS guaranteed, truncated or not: a shared edge is
     the minimum over a subset of the very closure that produced the node
     cost, so edge >= node always; both paths stay finite on
     logical-only targets; and the abstract edge accounting counts one
     invocation per edge, as the per-call path would. *)
  let shared = C.edge_costs fw suite6 in
  let nt = List.length suite6.targets in
  let nq = Array.length suite6.entries in
  for ti = 0 to nt - 1 do
    let disabled = Su.rules_of (List.nth suite6.targets ti) in
    for q = 0 to nq - 1 do
      let cs = C.edge_cost shared ~target_idx:ti ~query_idx:q in
      let cp =
        match F.cost fw ~disabled suite6.entries.(q).query with
        | Ok c -> c
        | Error _ -> Float.infinity
      in
      check bool_t
        (Printf.sprintf "edge (%d,%d) both finite" ti q)
        true
        (Float.is_finite cs && Float.is_finite cp);
      check bool_t
        (Printf.sprintf "edge (%d,%d) shared %.3f >= node" ti q cs)
        true
        (cs >= suite6.entries.(q).cost -. 1e-6)
    done
  done;
  check int_t "one invocation per edge" (nt * nq) (C.invocations_used shared);
  (* A query whose shared exploration fails (an unknown table) falls back
     to one full optimization per edge, which fails too: one exploration
     plus two per-call invocations, and infinite edges, not errors. *)
  let fw' = F.create ~options:quick_options cat in
  let targets = [ Su.Single "SelectMerge"; Su.Single "JoinCommute" ] in
  let bad : Su.t =
    { k = 1;
      targets;
      entries =
        [| { query = Relalg.Logical.Get { table = "nosuch"; alias = "n" };
             ruleset = F.SSet.empty;
             cost = 0.0 } |];
      per_target = List.map (fun t -> (t, [ 0 ])) targets }
  in
  let ec = C.edge_costs fw' bad in
  check bool_t "fallback edges infinite" true
    (C.edge_cost ec ~target_idx:0 ~query_idx:0 = Float.infinity
    && C.edge_cost ec ~target_idx:1 ~query_idx:0 = Float.infinity);
  check int_t "one exploration, then per-call" 3 (F.invocations fw')

let test_monotonicity_sound_and_cheaper () =
  (* Figure 14's two claims: identical solution quality, fewer optimizer
     invocations. *)
  check bool_t "same quality" true
    (abs_float (topk_sol.total_cost -. topk_mono_sol.total_cost) < 1e-6);
  check bool_t
    (Printf.sprintf "fewer invocations (%d <= %d)" topk_mono_sol.invocations
       topk_sol.invocations)
    true
    (topk_mono_sol.invocations <= topk_sol.invocations)

let test_compression_beats_baseline () =
  (* Figure 11's claim: shared execution is dramatically cheaper. *)
  check bool_t "topk <= baseline" true (topk_sol.total_cost <= baseline_sol.total_cost);
  check bool_t "smc <= baseline (singletons)" true
    (smc_sol.total_cost <= baseline_sol.total_cost)

let test_matching () =
  let m = Core.Matching.solve fw suite6 in
  (* queries distinct across the whole assignment *)
  let all_picks = List.concat_map (fun (_, ps) -> List.map fst ps) m.assignment in
  check int_t "no sharing" (List.length all_picks)
    (List.length (List.sort_uniq compare all_picks));
  List.iter
    (fun (_, picks) -> check bool_t "at most k" true (List.length picks <= suite6.k))
    m.assignment;
  check bool_t "cost positive" true (m.total_cost > 0.0);
  (* No-sharing optimum cannot beat sharing... but must not exceed
     BASELINE, whose assignment is one feasible no-sharing solution
     whenever per-target suites are disjoint. *)
  let disjoint =
    let all = List.concat_map snd suite6.per_target in
    List.length all = List.length (List.sort_uniq compare all)
  in
  if disjoint && m.complete then
    check bool_t "optimal <= baseline" true
      (m.total_cost <= baseline_sol.total_cost +. 1e-6)

(* ---------------- correctness + faults ---------------- *)

let test_correctness_clean () =
  let report = Core.Correctness.run fw suite6 topk_sol in
  check int_t "no bugs on sound rules" 0 (List.length report.bugs);
  check int_t "no errors" 0 (List.length report.errors);
  check bool_t "checked everything" true (report.pairs_checked > 0);
  check bool_t "skip accounting consistent" true
    (report.skipped_identical <= report.pairs_checked)

(* Deterministic fault detection: a handcrafted query known to distinguish
   the buggy rewrite on the micro data, run through the very pipeline a
   user would run (suite -> solution -> correctness report). *)
let micro = Storage.Datagen.micro ()

let fault_query victim =
  let open Relalg in
  let module L = Logical in
  let module S = Scalar in
  let id = Ident.make in
  let t1 = L.Get { table = "t1"; alias = "x" } in
  let t2 = L.Get { table = "t2"; alias = "y" } in
  let t3 = L.Get { table = "t3"; alias = "z" } in
  let b = id "x" "b" and a = id "x" "a" and cc = id "x" "c" in
  let d = id "y" "d" and e = id "y" "e" and f = id "z" "f" in
  let loj = L.Join { kind = L.LeftOuter; pred = S.eq (S.col b) (S.col d); left = t1; right = t2 } in
  match victim with
  | "PushSelectBelowLeftOuterJoin" | "SimplifyLeftOuterJoin" ->
    (* Keeps NULL-padded rows: not null-rejecting on the right side. *)
    L.Filter { pred = S.IsNull (S.col e); child = loj }
  | "SelectMerge" ->
    L.Filter
      { pred = S.Cmp (S.Ge, S.col a, S.int 0);
        child = L.Filter { pred = S.eq (S.col cc) (S.Const (Storage.Value.Str "x")); child = t1 } }
  | "GbAggPushBelowJoin" ->
    (* t3 has no key: the correct rule refuses, the buggy one fans out. *)
    L.GroupBy
      { keys = [ b; f ];
        aggs = [ (id "g" "s", Aggregate.Sum (S.col a)) ];
        child = L.Join { kind = L.Inner; pred = S.eq (S.col b) (S.col f); left = t1; right = t3 } }
  | _ -> invalid_arg victim

let fault_detected victim =
  let rules = Core.Faults.inject victim in
  let fw_b = F.create ~rules micro in
  let query = fault_query victim in
  let ruleset = Result.get_ok (F.ruleset fw_b query) in
  check bool_t (victim ^ " exercised by crafted query") true (F.SSet.mem victim ruleset);
  let cost = Result.get_ok (F.cost fw_b query) in
  let s : Su.t =
    { k = 1;
      targets = [ Su.Single victim ];
      entries = [| { Su.query; ruleset; cost } |];
      per_target = [ (Su.Single victim, [ 0 ]) ] }
  in
  let sol = C.baseline fw_b s in
  let report = Core.Correctness.run fw_b s sol in
  check int_t (victim ^ " errors") 0 (List.length report.errors);
  report.bugs <> []

let test_fault_select_merge () =
  check bool_t "buggy SelectMerge caught" true (fault_detected "SelectMerge")

let test_fault_gbagg_push () =
  check bool_t "buggy GbAggPushBelowJoin caught" true
    (fault_detected "GbAggPushBelowJoin")

let test_fault_push_below_loj () =
  check bool_t "buggy PushSelectBelowLeftOuterJoin caught" true
    (fault_detected "PushSelectBelowLeftOuterJoin")

let test_fault_simplify_loj () =
  check bool_t "buggy SimplifyLeftOuterJoin caught" true
    (fault_detected "SimplifyLeftOuterJoin")

(* The same pipeline with the stochastic generator also surfaces bugs —
   the paper's end-to-end story (generation is seeded; a few seeds give
   the generator a fair chance). *)
let test_fault_found_by_generation () =
  let victim = "SelectMerge" in
  let rules = Core.Faults.inject victim in
  let fw_b = F.create ~options:quick_options ~rules cat in
  let found =
    List.exists
      (fun seed ->
        let gb = Storage.Prng.create seed in
        let s = Su.generate fw_b gb ~targets:[ Su.Single victim ] ~k:6 ~extra_ops:2 in
        let sol = C.baseline fw_b s in
        (Core.Correctness.run fw_b s sol).bugs <> [])
      [ 99; 100; 101 ]
  in
  check bool_t "generated suite catches buggy SelectMerge" true found

let test_faults_registry () =
  check int_t "four faults" 4 (List.length Core.Faults.names);
  List.iter
    (fun n ->
      check bool_t (n ^ " described") true (String.length (Core.Faults.describe n) > 0);
      check int_t (n ^ " replaces, not adds") Optimizer.Rules.count
        (List.length (Core.Faults.inject n)))
    Core.Faults.names;
  Alcotest.check_raises "unknown fault"
    (Invalid_argument "Faults: no buggy variant for rule Nope") (fun () ->
      ignore (Core.Faults.inject "Nope"))

let suite =
  [ ( "core.suite",
      [ Alcotest.test_case "target helpers" `Quick test_targets_helpers;
        Alcotest.test_case "suite shape" `Slow test_suite_shape;
        Alcotest.test_case "covering superset" `Slow test_covering_superset ] );
    ( "core.compress",
      [ Alcotest.test_case "edge cost service" `Slow test_edge_cost_service;
        Alcotest.test_case "shared vs per-call edges" `Slow
          test_shared_vs_per_call_edges;
        Alcotest.test_case "baseline" `Slow test_baseline;
        Alcotest.test_case "smc" `Slow test_smc;
        Alcotest.test_case "topk picks cheapest" `Slow test_topk;
        Alcotest.test_case "monotonicity sound and cheaper" `Slow
          test_monotonicity_sound_and_cheaper;
        Alcotest.test_case "warm matrix identical" `Slow
          test_warm_matrix_identical;
        Alcotest.test_case "stale matrix on rule edit" `Slow
          test_stale_matrix_on_rule_edit;
        Alcotest.test_case "matrix stored once per run" `Slow test_matrix_stored_once;
        Alcotest.test_case "compression beats baseline" `Slow
          test_compression_beats_baseline ] );
    ("core.matching", [ Alcotest.test_case "exact no-sharing variant" `Slow test_matching ]);
    ( "core.correctness",
      [ Alcotest.test_case "clean run finds no bugs" `Slow test_correctness_clean;
        Alcotest.test_case "fault: SelectMerge" `Slow test_fault_select_merge;
        Alcotest.test_case "fault: GbAggPushBelowJoin" `Slow test_fault_gbagg_push;
        Alcotest.test_case "fault: PushSelectBelowLOJ" `Slow test_fault_push_below_loj;
        Alcotest.test_case "fault: SimplifyLOJ" `Slow test_fault_simplify_loj;
        Alcotest.test_case "fault found by generation" `Slow
          test_fault_found_by_generation;
        Alcotest.test_case "faults registry" `Quick test_faults_registry ] ) ]
