(* Transformation-rule tests.

   1. Precondition unit tests: rules must fire exactly when their
      (beyond-the-pattern) preconditions hold — the paper's central
      observation about patterns being necessary but not sufficient.
   2. Every rule's substitutes are valid trees with the same output schema.
   3. Whole-registry soundness via the framework's own methodology:
      generate a query exercising each rule, execute Plan(q) and
      Plan(q, not r), compare result bags. *)

open Relalg
module S = Scalar
module L = Logical
module R = Optimizer.Rule

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let micro = Storage.Datagen.micro ()
let id = Ident.make
let get1 = L.Get { table = "t1"; alias = "x" }
let get2 = L.Get { table = "t2"; alias = "y" }
let get3 = L.Get { table = "t3"; alias = "z" }
let a = id "x" "a"
let b = id "x" "b"
let cc = id "x" "c"
let d = id "y" "d"
let e = id "y" "e"
let f = id "z" "f"

let apply_rule (r : Optimizer.Rule.t) tree =
  List.map Hashcons.repr (r.apply micro (Hashcons.intern tree))

let apply name tree = apply_rule (Optimizer.Rules.find_exn name) tree
let fires name tree = apply name tree <> []

(* ---------------- precondition unit tests ---------------- *)

let test_join_commute_shape () =
  let join = L.Join { kind = L.Inner; pred = S.eq (S.col a) (S.col d); left = get1; right = get2 } in
  match apply "JoinCommute" join with
  | [ L.Project { cols; child = L.Join { left = l; right = r; _ } } ] ->
    check bool_t "children swapped" true (L.equal l get2 && L.equal r get1);
    check int_t "projection restores width" 5 (List.length cols)
  | _ -> Alcotest.fail "expected a single project-wrapped commuted join"

let test_simplify_loj_precondition () =
  let loj p =
    L.Filter
      { pred = p;
        child =
          L.Join { kind = L.LeftOuter; pred = S.eq (S.col a) (S.col d); left = get1; right = get2 } }
  in
  check bool_t "null-rejecting filter fires" true
    (fires "SimplifyLeftOuterJoin" (loj (S.Cmp (S.Gt, S.col e, S.int 0))));
  check bool_t "IS NULL filter must not fire" false
    (fires "SimplifyLeftOuterJoin" (loj (S.IsNull (S.col e))));
  check bool_t "left-side-only filter must not fire" false
    (fires "SimplifyLeftOuterJoin" (loj (S.Cmp (S.Gt, S.col a, S.int 0))))

let test_push_select_below_loj_sides () =
  let tree =
    L.Filter
      { pred = S.And (S.Cmp (S.Gt, S.col a, S.int 0), S.IsNull (S.col e));
        child =
          L.Join { kind = L.LeftOuter; pred = S.eq (S.col a) (S.col d); left = get1; right = get2 } }
  in
  match apply "PushSelectBelowLeftOuterJoin" tree with
  | [ L.Filter { pred; child = L.Join { left = L.Filter { pred = pl; _ }; right; _ } } ] ->
    (* Only the left conjunct moves below; the right-side IS NULL stays. *)
    check bool_t "left conjunct pushed" true (S.equal pl (S.Cmp (S.Gt, S.col a, S.int 0)));
    check bool_t "right side untouched" true (L.equal right get2);
    check bool_t "right conjunct kept above" true (S.equal pred (S.IsNull (S.col e)))
  | _ -> Alcotest.fail "expected push to left side only"

let test_semi_to_inner_precondition () =
  let semi pred = L.Join { kind = L.Semi; pred; left = get1; right = get2 } in
  check bool_t "fires on right PK" true
    (fires "SemiJoinToInnerJoin" (semi (S.eq (S.col a) (S.col d))));
  check bool_t "must not fire on non-key column" false
    (fires "SemiJoinToInnerJoin" (semi (S.eq (S.col a) (S.col e))))

let test_gbagg_pull_preconditions () =
  let gb =
    L.GroupBy { keys = [ b ]; aggs = [ (id "g" "s", Aggregate.Sum (S.col a)) ]; child = get1 }
  in
  let join pred = L.Join { kind = L.Inner; pred; left = gb; right = get2 } in
  check bool_t "fires when pred uses keys" true
    (fires "GbAggPullAboveJoin" (join (S.eq (S.col b) (S.col d))));
  check bool_t "must not fire when pred uses aggregate output" false
    (fires "GbAggPullAboveJoin" (join (S.eq (S.col (id "g" "s")) (S.col d))));
  (* t3 has no candidate key: pulling above a join with it may duplicate. *)
  let join3 = L.Join { kind = L.Inner; pred = S.eq (S.col b) (S.col f); left = gb; right = get3 } in
  check bool_t "must not fire without key on other side" false
    (fires "GbAggPullAboveJoin" join3)

let test_gbagg_push_preconditions () =
  let join = L.Join { kind = L.Inner; pred = S.eq (S.col b) (S.col d); left = get1; right = get2 } in
  let gb keys aggs = L.GroupBy { keys; aggs; child = join } in
  let sum = (id "g" "s", Aggregate.Sum (S.col a)) in
  check bool_t "fires with keys covering pred and right key" true
    (fires "GbAggPushBelowJoin" (gb [ b; d ] [ sum ]));
  check bool_t "must not fire when aggregate reads right side" false
    (fires "GbAggPushBelowJoin" (gb [ b; d ] [ (id "g" "s", Aggregate.Sum (S.col e)) ]));
  check bool_t "must not fire when pred column not grouped" false
    (fires "GbAggPushBelowJoin" (gb [ cc; d ] [ sum ]));
  check bool_t "must not fire without right-side key in keys" false
    (fires "GbAggPushBelowJoin" (gb [ b; e ] [ sum ]))

let test_gbagg_eliminate_preconditions () =
  let gb aggs keys = L.GroupBy { keys; aggs; child = get1 } in
  let sum = (id "g" "s", Aggregate.Sum (S.col b)) in
  check bool_t "fires when grouping on key" true
    (fires "GbAggEliminateOnKey" (gb [ sum ] [ a ]));
  check bool_t "must not fire on non-key" false
    (fires "GbAggEliminateOnKey" (gb [ sum ] [ cc ]));
  check bool_t "must not fire with COUNT(col)" false
    (fires "GbAggEliminateOnKey" (gb [ (id "g" "c", Aggregate.Count (S.col b)) ] [ a ]));
  match apply "GbAggEliminateOnKey" (gb [ (id "g" "n", Aggregate.CountStar) ] [ a ]) with
  | [ L.Project { cols; _ } ] ->
    check bool_t "count star becomes literal 1" true
      (List.exists (fun (_, e) -> S.equal e (S.int 1)) cols)
  | _ -> Alcotest.fail "expected projection"

let test_distinct_elim_precondition () =
  check bool_t "fires over keyed input" true (fires "DistinctElimOnKey" (L.Distinct get1));
  check bool_t "must not fire over keyless input" false
    (fires "DistinctElimOnKey" (L.Distinct get3))

let test_join_loj_assoc_precondition () =
  let loj = L.Join { kind = L.LeftOuter; pred = S.eq (S.col d) (S.col f); left = get2; right = get3 } in
  let join pred = L.Join { kind = L.Inner; pred; left = get1; right = loj } in
  check bool_t "fires when pred avoids T" true
    (fires "JoinLeftOuterJoinAssoc" (join (S.eq (S.col a) (S.col d))));
  check bool_t "must not fire when pred touches T" false
    (fires "JoinLeftOuterJoinAssoc" (join (S.eq (S.col a) (S.col f))))

let test_select_split_merge () =
  let p1 = S.Cmp (S.Gt, S.col a, S.int 1) and p2 = S.IsNull (S.col b) in
  let stacked = L.Filter { pred = p1; child = L.Filter { pred = p2; child = get1 } } in
  (match apply "SelectMerge" stacked with
  | [ L.Filter { pred; child } ] ->
    check bool_t "merged pred" true (S.equal pred (S.And (p1, p2)));
    check bool_t "child" true (L.equal child get1)
  | _ -> Alcotest.fail "merge");
  let merged = L.Filter { pred = S.And (p1, p2); child = get1 } in
  (match apply "SelectSplit" merged with
  | [ L.Filter { pred = q1; child = L.Filter { pred = q2; child } } ] ->
    check bool_t "split parts" true (S.equal q1 p1 && S.equal q2 p2 && L.equal child get1)
  | _ -> Alcotest.fail "split");
  check bool_t "single conjunct does not split" false
    (fires "SelectSplit" (L.Filter { pred = p1; child = get1 }))

let test_trivial_and_identity_removal () =
  check bool_t "true filter removed" true
    (apply "RemoveTrivialSelect" (L.Filter { pred = S.true_; child = get1 }) = [ get1 ]);
  check bool_t "non-trivial kept" false
    (fires "RemoveTrivialSelect" (L.Filter { pred = S.IsNull (S.col b); child = get1 }));
  let identity =
    L.Project { cols = [ (a, S.col a); (b, S.col b); (cc, S.col cc) ]; child = get1 }
  in
  check bool_t "identity project removed" true
    (apply "RemoveIdentityProject" identity = [ get1 ]);
  let reordered =
    L.Project { cols = [ (b, S.col b); (a, S.col a); (cc, S.col cc) ]; child = get1 }
  in
  check bool_t "reordered is not identity" false (fires "RemoveIdentityProject" reordered)

let test_union_rules () =
  let other = L.Get { table = "t1"; alias = "w" } in
  let ua = L.UnionAll (get1, other) in
  (match apply "UnionAllCommute" ua with
  | [ L.Project { cols; child = L.UnionAll (l, r) } ] ->
    check bool_t "branches swapped" true (L.equal l other && L.equal r get1);
    check bool_t "renames to left idents" true
      (List.exists (fun (out, _) -> Ident.equal out a) cols)
  | _ -> Alcotest.fail "union all commute");
  check bool_t "union to unionall+distinct" true
    (match apply "UnionToUnionAllDistinct" (L.Union (get1, other)) with
    | [ L.Distinct (L.UnionAll _) ] -> true
    | _ -> false)

let test_intersect_except_to_semi () =
  let other = L.Get { table = "t1"; alias = "w" } in
  (match apply "IntersectToSemiJoin" (L.Intersect (get1, other)) with
  | [ L.Distinct (L.Join { kind = L.Semi; pred; _ }) ] ->
    check int_t "null-safe pred per column" 3 (List.length (S.conjuncts pred))
  | _ -> Alcotest.fail "intersect");
  match apply "ExceptToAntiSemiJoin" (L.Except (get1, other)) with
  | [ L.Distinct (L.Join { kind = L.AntiSemi; _ }) ] -> ()
  | _ -> Alcotest.fail "except"

(* ---------------- schema preservation ---------------- *)

(* Every substitute of every rule must be valid and export exactly the
   same output columns in the same order. *)
let test_rules_preserve_schema () =
  let g = Storage.Prng.create 314 in
  let ctx = { Core.Arggen.g; cat = micro } in
  let checked = ref 0 in
  for _ = 1 to 120 do
    let tree = Core.Random_gen.generate ~max_ops:7 ctx in
    let original = Props.schema_exn micro tree in
    List.iter
      (fun (r : R.t) ->
        List.iter
          (fun tree' ->
            incr checked;
            match Props.schema micro tree' with
            | Error msg ->
              Alcotest.failf "%s produced invalid tree: %s\nfrom:\n%s\nto:\n%s" r.name
                msg (L.to_string tree) (L.to_string tree')
            | Ok cols' ->
              if
                not
                  (List.length cols' = List.length original
                  && List.for_all2
                       (fun (x : Props.col_info) (y : Props.col_info) ->
                         Ident.equal x.id y.id && Storage.Datatype.equal x.ty y.ty)
                       cols' original)
              then
                Alcotest.failf "%s changed the output schema\nfrom:\n%s\nto:\n%s" r.name
                  (L.to_string tree) (L.to_string tree'))
          (apply_rule r tree))
      Optimizer.Rules.all
  done;
  check bool_t "exercised a meaningful number of substitutions" true (!checked > 50)

(* ---------------- whole-registry soundness ---------------- *)

let tpch = Storage.Datagen.tpch ~scale:0.001 ()

let soundness_case rule_name () =
  let fw = Core.Framework.create tpch in
  let g = Storage.Prng.create (Hashtbl.hash rule_name) in
  match Core.Query_gen.for_rule ~max_trials:80 fw g rule_name with
  | None -> Alcotest.failf "could not generate a query exercising %s" rule_name
  | Some { query; _ } -> (
    match (Core.Framework.optimize fw query, Core.Framework.optimize fw ~disabled:[ rule_name ] query) with
    | Ok on, Ok off ->
      check bool_t "cost monotone" true (off.cost >= on.cost -. 1e-6);
      check bool_t "rule not exercised when disabled" false
        (Core.Framework.SSet.mem rule_name off.exercised);
      let cat = Core.Framework.catalog fw in
      (match (Executor.Exec.run cat on.plan, Executor.Exec.run cat off.plan) with
      | Ok r1, Ok r2 ->
        if not (Executor.Resultset.equal_bag r1 r2) then
          Alcotest.failf "results differ with %s disabled\n%s" rule_name
            (L.to_string query)
      | Error e, _ | _, Error e -> Alcotest.failf "execution failed: %s" e)
    | Error e, _ | _, Error e -> Alcotest.failf "optimize failed: %s" e)

let soundness_cases =
  List.map
    (fun name -> Alcotest.test_case name `Slow (soundness_case name))
    Optimizer.Rules.names

let suite =
  [ ( "optimizer.rules.preconditions",
      [ Alcotest.test_case "join commute shape" `Quick test_join_commute_shape;
        Alcotest.test_case "simplify LOJ" `Quick test_simplify_loj_precondition;
        Alcotest.test_case "push select below LOJ" `Quick test_push_select_below_loj_sides;
        Alcotest.test_case "semi-join to inner" `Quick test_semi_to_inner_precondition;
        Alcotest.test_case "group-by pull-above" `Quick test_gbagg_pull_preconditions;
        Alcotest.test_case "group-by push-below" `Quick test_gbagg_push_preconditions;
        Alcotest.test_case "group-by eliminate" `Quick test_gbagg_eliminate_preconditions;
        Alcotest.test_case "distinct eliminate" `Quick test_distinct_elim_precondition;
        Alcotest.test_case "join/LOJ associativity" `Quick test_join_loj_assoc_precondition;
        Alcotest.test_case "select split/merge" `Quick test_select_split_merge;
        Alcotest.test_case "trivial/identity removal" `Quick test_trivial_and_identity_removal;
        Alcotest.test_case "union rules" `Quick test_union_rules;
        Alcotest.test_case "intersect/except rewrites" `Quick test_intersect_except_to_semi ] );
    ( "optimizer.rules.schema",
      [ Alcotest.test_case "substitutes preserve output schema" `Quick
          test_rules_preserve_schema ] );
    ("optimizer.rules.soundness", soundness_cases) ]
