(* Core framework tests: the DBMS facade, pattern-based generation for
   singleton rules and pairs, and the RANDOM baseline. *)
module F = Core.Framework
module QG = Core.Query_gen

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let cat = Storage.Datagen.tpch ~scale:0.001 ()

let test_invocation_counter () =
  let fw = F.create cat in
  check int_t "starts at zero" 0 (F.invocations fw);
  let g = Storage.Prng.create 5 in
  let ctx = { Core.Arggen.g; cat } in
  let q = Core.Random_gen.generate ~max_ops:4 ctx in
  ignore (F.ruleset fw q);
  ignore (F.cost fw q);
  check int_t "two invocations" 2 (F.invocations fw);
  F.reset_invocations fw;
  check int_t "reset" 0 (F.invocations fw)

let test_cost_and_disable () =
  let fw = F.create cat in
  let g = Storage.Prng.create 17 in
  match QG.for_rule fw g "PushSelectBelowJoin" with
  | None -> Alcotest.fail "generation failed"
  | Some { query; _ } ->
    let on = Result.get_ok (F.cost fw query) in
    let off = Result.get_ok (F.cost fw ~disabled:[ "PushSelectBelowJoin" ] query) in
    check bool_t "disabling never helps" true (off >= on -. 1e-9)

let test_pattern_of () =
  let fw = F.create cat in
  check bool_t "known rule" true (F.pattern_of fw "JoinCommute" <> None);
  check bool_t "unknown rule" true (F.pattern_of fw "NoSuchRule" = None)

let test_execute () =
  let fw = F.create cat in
  let region = Relalg.Logical.Get { table = "region"; alias = "q" } in
  match F.execute fw region with
  | Ok res -> check int_t "five regions" 5 (Executor.Resultset.row_count res)
  | Error e -> Alcotest.fail e

(* PATTERN generation succeeds quickly for every rule (Figure 8's
   qualitative claim: small trial counts for all rules). *)
let test_pattern_trials_small () =
  let fw = F.create cat in
  let g = Storage.Prng.create 23 in
  let total = ref 0 in
  List.iter
    (fun name ->
      match QG.for_rule ~max_trials:80 fw g name with
      | None -> Alcotest.failf "PATTERN failed for %s" name
      | Some { trials; _ } -> total := !total + trials)
    Optimizer.Rules.names;
  let avg = float_of_int !total /. float_of_int Optimizer.Rules.count in
  check bool_t (Printf.sprintf "average trials small (%.1f)" avg) true (avg < 8.0)

let test_pattern_pairs () =
  let fw = F.create cat in
  let g = Storage.Prng.create 31 in
  (* A handful of representative pairs, including the paper's §3 example
     of join + outer-join interaction. *)
  let pairs =
    [ ("JoinCommute", "GbAggPullAboveJoin");
      ("JoinLeftOuterJoinAssoc", "JoinCommute");
      ("SelectMerge", "PushSelectBelowJoin");
      ("UnionAllCommute", "JoinCommute");
      ("SimplifyLeftOuterJoin", "PushSelectBelowJoin") ]
  in
  List.iter
    (fun (r1, r2) ->
      match QG.for_pair ~max_trials:120 fw g (r1, r2) with
      | None -> Alcotest.failf "pair (%s, %s) failed" r1 r2
      | Some { query; _ } -> (
        match F.ruleset fw query with
        | Ok rs ->
          check bool_t (r1 ^ " fired") true (F.SSet.mem r1 rs);
          check bool_t (r2 ^ " fired") true (F.SSet.mem r2 rs)
        | Error e -> Alcotest.fail e))
    pairs

let test_random_baseline () =
  let fw = F.create cat in
  let g = Storage.Prng.create 41 in
  (* An easy rule: random generation should find it, eventually. *)
  match QG.random_for_rules ~max_trials:300 fw g [ "PushSelectBelowJoin" ] with
  | None -> Alcotest.fail "random generation never exercised an easy rule"
  | Some { query; trials } ->
    check bool_t "trials positive" true (trials >= 1);
    check bool_t "query valid" true
      (Result.is_ok (Relalg.Props.validate cat query))

let test_pattern_beats_random_on_hard_rule () =
  (* A rule needing two specific operators stacked: random generation
     rarely hits it; patterns nail it. Uses matched trial budgets. *)
  let fw = F.create cat in
  let hard = "GbAggPullAboveJoin" in
  let rec pattern_trials seed budget =
    if budget = 0 then 80
    else
      match QG.for_rule ~max_trials:80 fw (Storage.Prng.create seed) hard with
      | Some { trials; _ } -> trials
      | None -> pattern_trials (seed + 1) (budget - 1)
  in
  let p = pattern_trials 100 3 in
  let r =
    match QG.random_for_rules ~max_trials:80 fw (Storage.Prng.create 100) [ hard ] with
    | Some { trials; _ } -> trials
    | None -> 80
  in
  check bool_t (Printf.sprintf "pattern (%d) <= random (%d)" p r) true (p <= r)

let test_generated_queries_emit_sql () =
  let fw = F.create cat in
  let g = Storage.Prng.create 53 in
  List.iter
    (fun name ->
      match QG.for_rule ~max_trials:80 fw g name with
      | None -> Alcotest.failf "generation failed for %s" name
      | Some { query; _ } ->
        let sql = Relalg.Sql_print.to_sql cat query in
        (match Relalg.Sql_parser.parse cat sql with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "emitted SQL unparsable for %s: %s" name e))
    [ "JoinCommute"; "GbAggPushBelowJoin"; "IntersectToSemiJoin"; "SimplifyLeftOuterJoin" ]

let test_relevant_generation () =
  (* §7 variant: the generated query's plan must actually change when the
     rule is turned off. *)
  let fw = F.create cat in
  let g = Storage.Prng.create 71 in
  List.iter
    (fun rule ->
      match QG.relevant_for_rule ~max_trials:80 fw g rule with
      | None -> Alcotest.failf "no relevant query for %s" rule
      | Some { query; _ } -> (
        match (F.optimize fw query, F.optimize fw ~disabled:[ rule ] query) with
        | Ok on, Ok off ->
          check bool_t (rule ^ " relevant") false
            (Optimizer.Physical.equal on.plan off.plan)
        | _ -> Alcotest.fail "optimize failed"))
    [ "PushSelectBelowJoin"; "MergeSelectIntoJoin" ]

let test_padding_constraint () =
  let fw = F.create cat in
  let g = Storage.Prng.create 61 in
  match QG.for_rule ~max_trials:80 ~extra_ops:5 fw g "JoinCommute" with
  | None -> Alcotest.fail "generation failed"
  | Some { query; _ } ->
    check bool_t "padded queries are bigger" true (Relalg.Logical.size query >= 5);
    check bool_t "still valid" true (Result.is_ok (Relalg.Props.validate cat query))

(* Golden digest of every (query option, trials) over a fixed grid of
   all four generation methods, each call from a fresh PRNG and label
   counter: pins the PRNG draws, the order of optimizer calls and the
   trial counts of the shared trial loop. *)
let golden_gen_digest = "09726d01cc67c5eeda18f7d3eb557bdc"

let test_golden_generation () =
  let fw = F.create cat in
  let rules = List.filteri (fun i _ -> i < 20) Optimizer.Rules.names in
  let first n = List.filteri (fun i _ -> i < n) rules in
  let buf = Buffer.create 4096 in
  let record (r : QG.generated option) =
    Buffer.add_string buf
      (Marshal.to_string (Option.map (fun (g : QG.generated) -> (g.query, g.trials)) r)
         [ Marshal.No_sharing ])
  in
  let call seed f =
    Relalg.Ident.reset_fresh ();
    record (f (Storage.Prng.create seed))
  in
  List.iter
    (fun rule ->
      List.iter
        (fun seed ->
          List.iter
            (fun extra_ops -> call seed (fun g -> QG.for_rule ~extra_ops fw g rule))
            [ 0; 2 ])
        [ 1; 2; 3 ])
    rules;
  let five = first 5 in
  List.iteri
    (fun i r1 ->
      List.iteri
        (fun j r2 -> if i < j then call 1 (fun g -> QG.for_pair fw g (r1, r2)))
        five)
    five;
  List.iter (fun rule -> call 1 (fun g -> QG.relevant_for_rule ~max_trials:20 fw g rule))
    (first 6);
  List.iter
    (fun rule -> call 1 (fun g -> QG.random_for_rules ~max_trials:30 fw g [ rule ]))
    (first 10);
  check Alcotest.string "generation digest" golden_gen_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [ ( "core.framework",
      [ Alcotest.test_case "invocation counter" `Quick test_invocation_counter;
        Alcotest.test_case "cost and disable" `Quick test_cost_and_disable;
        Alcotest.test_case "pattern export" `Quick test_pattern_of;
        Alcotest.test_case "execute" `Quick test_execute ] );
    ( "core.query_gen",
      [ Alcotest.test_case "all rules generable" `Slow test_pattern_trials_small;
        Alcotest.test_case "rule pairs" `Slow test_pattern_pairs;
        Alcotest.test_case "random baseline" `Slow test_random_baseline;
        Alcotest.test_case "pattern beats random on hard rule" `Slow
          test_pattern_beats_random_on_hard_rule;
        Alcotest.test_case "generated queries emit valid SQL" `Quick
          test_generated_queries_emit_sql;
        Alcotest.test_case "relevant-rule variant" `Slow test_relevant_generation;
        Alcotest.test_case "operator padding" `Quick test_padding_constraint;
        Alcotest.test_case "golden generation digest" `Quick test_golden_generation ] ) ]
