(* Engine tests: RuleSet tracking, rule disabling, cost monotonicity,
   determinism, budgets, implementation-rule behaviour. *)
open Relalg
module S = Scalar
module L = Logical
module E = Optimizer.Engine

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let cat = Storage.Datagen.micro ()
let id = Ident.make
let get1 = L.Get { table = "t1"; alias = "x" }
let get2 = L.Get { table = "t2"; alias = "y" }
let a = id "x" "a"
let d = id "y" "d"

let join =
  L.Join { kind = L.Inner; pred = S.eq (S.col a) (S.col d); left = get1; right = get2 }

let filtered =
  L.Filter { pred = S.Cmp (S.Gt, S.col a, S.int 3); child = join }

let disabled_options names =
  { E.default_options with
    disabled = List.fold_left (fun s n -> E.SSet.add n s) E.SSet.empty names }

let test_ruleset_tracking () =
  let rs = Result.get_ok (E.ruleset cat filtered) in
  check bool_t "join commute exercised" true (E.SSet.mem "JoinCommute" rs);
  check bool_t "select pushdown exercised" true (E.SSet.mem "PushSelectBelowJoin" rs);
  check bool_t "merge select into join" true (E.SSet.mem "MergeSelectIntoJoin" rs);
  check bool_t "group-by rules not exercised" false (E.SSet.mem "GbAggPullAboveJoin" rs)

let test_ruleset_deterministic () =
  let rs1 = Result.get_ok (E.ruleset cat filtered) in
  let rs2 = Result.get_ok (E.ruleset cat filtered) in
  check bool_t "same set" true (E.SSet.equal rs1 rs2)

let test_disabled_not_exercised () =
  let options = disabled_options [ "JoinCommute" ] in
  let rs = Result.get_ok (E.ruleset ~options cat filtered) in
  check bool_t "disabled rule absent" false (E.SSet.mem "JoinCommute" rs)

let test_optimize_result () =
  let r = Result.get_ok (E.optimize cat filtered) in
  check bool_t "cost positive" true (r.cost > 0.0);
  check bool_t "explored several trees" true (r.trees_explored > 1);
  check bool_t "plan uses a scan" true
    (let rec has_scan p =
       match p with
       | Optimizer.Physical.TableScan _ -> true
       | _ -> List.exists has_scan (Optimizer.Physical.children p)
     in
     has_scan r.plan);
  check bool_t "impl rules tracked" true
    (E.SSet.mem "GetToTableScan" r.impl_exercised)

let test_cost_monotone_under_disable () =
  let base = Result.get_ok (E.optimize cat filtered) in
  E.SSet.iter
    (fun rule ->
      let r = Result.get_ok (E.optimize ~options:(disabled_options [ rule ]) cat filtered) in
      check bool_t ("cost(off " ^ rule ^ ") >= cost") true (r.cost >= base.cost -. 1e-9))
    base.exercised

let test_invalid_tree_rejected () =
  let bad = L.Filter { pred = S.col a; child = get1 } in
  check bool_t "rejects non-boolean" true (Result.is_error (E.optimize cat bad));
  let unknown = L.Get { table = "zzz"; alias = "q" } in
  check bool_t "rejects unknown table" true (Result.is_error (E.optimize cat unknown))

let test_no_plan_when_impl_disabled () =
  let r = E.optimize ~options:(disabled_options [ "GetToTableScan" ]) cat filtered in
  check bool_t "no plan without scans" true (Result.is_error r)

let test_join_impl_alternatives () =
  (* Disabling hash join must leave a working (more expensive or equal)
     nested-loops plan. *)
  let base = Result.get_ok (E.optimize cat join) in
  let no_hash =
    Result.get_ok (E.optimize ~options:(disabled_options [ "JoinToHashJoin" ]) cat join)
  in
  check bool_t "still plans" true (no_hash.cost >= base.cost);
  let rec uses_hash p =
    match p with
    | Optimizer.Physical.HashJoin _ -> true
    | _ -> List.exists uses_hash (Optimizer.Physical.children p)
  in
  check bool_t "no hash join in plan" false (uses_hash no_hash.plan)

let test_budget_respected () =
  let options = { E.default_options with max_trees = 10 } in
  let r = Result.get_ok (E.optimize ~options cat filtered) in
  check bool_t "at most 10 trees" true (r.trees_explored <= 10)

let test_growth_cap () =
  let options = { E.default_options with max_growth = 0 } in
  let r = Result.get_ok (E.optimize ~options cat filtered) in
  (* With zero growth the engine still works; it just explores less. *)
  check bool_t "still optimizes" true (r.cost > 0.0)

let test_exploration_finds_cheaper_plan () =
  (* Pushing the selective filter below the join should beat the naive
     plan of filtering after the join. *)
  let all_off = disabled_options Optimizer.Rules.names in
  let naive = Result.get_ok (E.optimize ~options:all_off cat filtered) in
  let smart = Result.get_ok (E.optimize cat filtered) in
  check bool_t "exploration helps" true (smart.cost <= naive.cost)

let test_custom_rules_param () =
  (* With an empty exploration registry, only the input tree is planned. *)
  let r = Result.get_ok (E.optimize ~rules:[] cat filtered) in
  check int_t "single tree" 1 r.trees_explored;
  check bool_t "nothing exercised" true (E.SSet.is_empty r.exercised)

(* ------------------------------------------------------------------ *)
(* Memoized exploration vs the per-tree reference path                  *)
(* ------------------------------------------------------------------ *)

let float_t = Alcotest.float 1e-9

let check_memo_equivalent name options q =
  let on = Result.get_ok (E.optimize ~options cat q) in
  let off = Result.get_ok (E.Reference.optimize ~options cat q) in
  check float_t (name ^ ": same cost") off.cost on.cost;
  check int_t (name ^ ": same closure size") off.trees_explored on.trees_explored;
  check bool_t (name ^ ": same truncation") true
    (off.budget_truncated = on.budget_truncated);
  check bool_t (name ^ ": same exercised") true
    (E.SSet.equal off.exercised on.exercised);
  check bool_t (name ^ ": same impl exercised") true
    (E.SSet.equal off.impl_exercised on.impl_exercised);
  check bool_t (name ^ ": same best tree") true
    (L.equal off.best_logical on.best_logical)

let test_memoize_equivalent () =
  List.iter
    (fun q -> check_memo_equivalent "default budget" E.default_options q)
    [ join; filtered; get1 ];
  (* Tiny budgets truncate the closure mid-enumeration: both paths must
     still admit bit-identical tree sets, which is only true if memoized
     replay preserves the reference enumeration order exactly. *)
  List.iter
    (fun budget ->
      check_memo_equivalent
        (Printf.sprintf "budget %d" budget)
        { E.default_options with max_trees = budget }
        filtered)
    [ 2; 3; 5; 10; 50 ]

let test_closure_dedup () =
  (* JoinCommute applied twice yields the original tree; the closure must
     not blow up re-admitting known trees through new derivations. *)
  let r = Result.get_ok (E.optimize cat join) in
  check bool_t "closure completed" false r.budget_truncated;
  let r10 =
    Result.get_ok (E.optimize ~options:{ E.default_options with max_trees = 1000 } cat join)
  in
  check int_t "fixpoint independent of budget headroom" r.trees_explored
    r10.trees_explored

let test_budget_truncated_invariants () =
  let tight = { E.default_options with max_trees = 3 } in
  let r = Result.get_ok (E.optimize ~options:tight cat filtered) in
  check bool_t "tight budget reported exhausted" true r.budget_truncated;
  check int_t "admits exactly max_trees" 3 r.trees_explored;
  let loose = Result.get_ok (E.optimize cat filtered) in
  check bool_t "default budget completes on micro" false loose.budget_truncated;
  check bool_t "exhausted run costs no less" true (r.cost >= loose.cost -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Shared exploration                                                   *)
(* ------------------------------------------------------------------ *)

let test_shared_cost_empty_disabled () =
  List.iter
    (fun q ->
      let full = Result.get_ok (E.optimize cat q) in
      let sh = Result.get_ok (E.explore_shared cat q) in
      check int_t "shared closure size = explore's" full.trees_explored
        (E.shared_trees sh);
      check bool_t "same exercised" true
        (E.SSet.equal full.exercised (E.shared_exercised sh));
      let c = Result.get_ok (E.shared_cost sh ~disabled:E.SSet.empty) in
      check float_t "shared_cost {} = optimize cost" full.cost c)
    [ join; filtered; get1 ]

let test_shared_cost_singleton_disabled () =
  (* On the micro catalog the closure completes within the default
     budget, so the shared filtered cost must equal a from-scratch
     optimization with the rule disabled — for every exercised logical
     rule and for implementation rules too. *)
  let sh = Result.get_ok (E.explore_shared cat filtered) in
  check bool_t "closure complete" false (E.shared_truncated sh);
  E.SSet.iter
    (fun rule ->
      let scratch =
        Result.get_ok
          (E.optimize ~options:(disabled_options [ rule ]) cat filtered)
      in
      let shared =
        Result.get_ok (E.shared_cost sh ~disabled:(E.SSet.singleton rule))
      in
      check float_t ("shared = scratch with " ^ rule ^ " off") scratch.cost shared)
    (E.shared_exercised sh);
  let no_hash =
    Result.get_ok (E.shared_cost sh ~disabled:(E.SSet.singleton "JoinToHashJoin"))
  in
  let scratch =
    Result.get_ok
      (E.optimize ~options:(disabled_options [ "JoinToHashJoin" ]) cat filtered)
  in
  check float_t "impl rule honoured" scratch.cost no_hash

let test_shared_cost_conservative () =
  (* Pair-disabling: never cheaper than the from-scratch cost. *)
  let sh = Result.get_ok (E.explore_shared cat filtered) in
  let rules = E.SSet.elements (E.shared_exercised sh) in
  List.iter
    (fun r1 ->
      List.iter
        (fun r2 ->
          let disabled = E.SSet.of_list [ r1; r2 ] in
          let scratch =
            Result.get_ok
              (E.optimize ~options:(disabled_options [ r1; r2 ]) cat filtered)
          in
          match E.shared_cost sh ~disabled with
          | Ok c ->
            check bool_t
              (Printf.sprintf "shared >= scratch without {%s,%s}" r1 r2)
              true
              (c >= scratch.cost -. 1e-9)
          | Error _ -> Alcotest.fail "shared_cost failed on complete closure")
        rules)
    rules

let test_shared_cost_all_impl_disabled () =
  let sh = Result.get_ok (E.explore_shared cat filtered) in
  let disabled = E.SSet.of_list E.implementation_rule_names in
  check bool_t "no plan when all impl rules disabled" true
    (Result.is_error (E.shared_cost sh ~disabled))

(* ------------------------------------------------------------------ *)
(* Cross-call rewrite memo and closure reuse                            *)
(* ------------------------------------------------------------------ *)

module M = Obs.Metrics

let matched_names f = snd (Optimizer.Rule.collect_matched f)

let test_memo_matched_names () =
  let off = [ "JoinCommute"; "PushSelectBelowJoin" ] in
  let options = disabled_options off in
  let names optimize = matched_names (fun () -> ignore (Result.get_ok (optimize ()))) in
  Hashcons.clear ();
  let cold = names (fun () -> E.optimize ~options cat filtered) in
  let reference = names (fun () -> E.Reference.optimize ~options cat filtered) in
  (* The all-rules call fills the memo with the disabled rules' entries too. *)
  let all_rules = names (fun () -> E.optimize cat filtered) in
  let warm = names (fun () -> E.optimize ~options cat filtered) in
  let reused = names (fun () -> E.optimize ~options cat filtered) in
  let names_t = Alcotest.(list string) in
  check names_t "cold = reference" reference cold;
  check names_t "warm = cold" cold warm;
  check names_t "reused closure = cold" cold reused;
  check bool_t "all-rules call matched JoinCommute" true (List.mem "JoinCommute" all_rules);
  List.iter
    (fun r -> check bool_t (r ^ " disabled, never reported") false (List.mem r warm))
    off

let test_reuse_counts_logical_calls () =
  M.clear ();
  M.set_enabled true;
  Fun.protect ~finally:(fun () ->
      M.set_enabled false;
      M.clear ())
  @@ fun () ->
  let counts () =
    ( M.counter_total "optimizer.explore.trees",
      List.map
        (fun r -> M.counter_total ~label:r "optimizer.rule.fired")
        Optimizer.Rules.names )
  in
  let call () = ignore (Result.get_ok (E.optimize cat filtered)) in
  Hashcons.clear ();
  call ();
  let trees, fired = counts () in
  check bool_t "one call fired some rule" true (List.exists (fun c -> c > 0) fired);
  let times k = (k * trees, List.map (( * ) k) fired) in
  let counts_t = Alcotest.(pair int (list int)) in
  M.reset ();
  for _ = 1 to 5 do call () done;
  check counts_t "5 inline calls count 5 explorations" (times 5) (counts ());
  check int_t "all 5 served the previous closure" 5
    (M.counter_total "optimizer.explore.reused");
  M.reset ();
  let pool = Par.Pool.create ~jobs:4 () in
  ignore (Par.Pool.map_list pool call (List.init 8 (fun _ -> ())));
  check counts_t "8 pooled calls count 8 explorations" (times 8) (counts ())

let test_memo_dropped () =
  ignore (E.optimize cat filtered);
  check bool_t "memo filled" true (E.memo_entries () > 0);
  Hashcons.clear ();
  check int_t "empty after Hashcons.clear" 0 (E.memo_entries ());
  ignore (E.optimize cat filtered);
  (* A one-node tree under another registry: the memo now holds that
     node alone, nothing of the previous registry's. *)
  let registry = [ Optimizer.Rules.find_exn "JoinCommute" ] in
  ignore (E.optimize ~rules:registry cat get1);
  check int_t "registry switch starts a new memo" 1 (E.memo_entries ());
  E.drop_memo ();
  check int_t "empty after drop_memo" 0 (E.memo_entries ())

let suite =
  [ ( "optimizer.engine",
      [ Alcotest.test_case "ruleset tracking" `Quick test_ruleset_tracking;
        Alcotest.test_case "ruleset deterministic" `Quick test_ruleset_deterministic;
        Alcotest.test_case "disabled rules" `Quick test_disabled_not_exercised;
        Alcotest.test_case "optimize result" `Quick test_optimize_result;
        Alcotest.test_case "cost monotone under disabling" `Quick
          test_cost_monotone_under_disable;
        Alcotest.test_case "invalid trees rejected" `Quick test_invalid_tree_rejected;
        Alcotest.test_case "no plan when scans disabled" `Quick
          test_no_plan_when_impl_disabled;
        Alcotest.test_case "join implementation alternatives" `Quick
          test_join_impl_alternatives;
        Alcotest.test_case "tree budget" `Quick test_budget_respected;
        Alcotest.test_case "growth cap" `Quick test_growth_cap;
        Alcotest.test_case "exploration finds cheaper plans" `Quick
          test_exploration_finds_cheaper_plan;
        Alcotest.test_case "custom rule registry" `Quick test_custom_rules_param;
        Alcotest.test_case "memoized exploration = reference" `Quick
          test_memoize_equivalent;
        Alcotest.test_case "closure dedup" `Quick test_closure_dedup;
        Alcotest.test_case "budget truncation invariants" `Quick
          test_budget_truncated_invariants;
        Alcotest.test_case "shared cost, nothing disabled" `Quick
          test_shared_cost_empty_disabled;
        Alcotest.test_case "shared cost, one rule disabled" `Quick
          test_shared_cost_singleton_disabled;
        Alcotest.test_case "shared cost conservative" `Quick
          test_shared_cost_conservative;
        Alcotest.test_case "shared cost, impl rules disabled" `Quick
          test_shared_cost_all_impl_disabled;
        Alcotest.test_case "memo: matched names cold = warm" `Quick
          test_memo_matched_names;
        Alcotest.test_case "memo: reuse counts logical calls" `Quick
          test_reuse_counts_logical_calls;
        Alcotest.test_case "memo: dropped on clear and switch" `Quick
          test_memo_dropped ] ) ]
