(* Property-based tests over the whole stack (QCheck): generator validity,
   schema invariance under rewrites, optimizer determinism and cost
   monotonicity, plan/executor agreement, and the paper's correctness
   methodology itself as a property. *)
open Storage
module L = Relalg.Logical
module F = Core.Framework

let cat = Datagen.tpch ~scale:0.001 ()
let micro = Datagen.micro ()
let seed_arb = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000)

let quick_options = { Optimizer.Engine.default_options with max_trees = 600 }

let random_tree ?(max_ops = 7) catalog seed =
  let g = Prng.create seed in
  let ctx = { Core.Arggen.g; cat = catalog } in
  Core.Random_gen.generate ~max_ops ctx

let prop_generated_trees_valid =
  QCheck.Test.make ~name:"random generator produces valid trees" ~count:200 seed_arb
    (fun seed ->
      let t = random_tree cat seed in
      match Relalg.Props.validate cat t with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "invalid: %s\n%s" e (L.to_string t))

let prop_instantiation_valid =
  QCheck.Test.make ~name:"pattern instantiation produces valid trees" ~count:150
    seed_arb (fun seed ->
      let g = Prng.create seed in
      let ctx = { Core.Arggen.g; cat } in
      let rule = Optimizer.Rules.nth (seed mod Optimizer.Rules.count) in
      match Core.Query_gen.instantiate ctx rule.pattern with
      | None -> true (* argument selection may fail; that is a trial miss *)
      | Some t -> (
        match Relalg.Props.validate cat t with
        | Ok () ->
          (* Alignment of set-operation branches may interpose projections,
             in which case the composite shape is approximate (a RuleSet
             check decides, as in the paper); otherwise the pattern must be
             present. *)
          let has_project =
            L.fold (fun acc n -> acc || L.kind n = L.KProject) false t
          in
          Dsl.Pattern.matches_anywhere rule.pattern t || has_project
        | Error e -> QCheck.Test.fail_reportf "invalid: %s\n%s" e (L.to_string t)))

let prop_rewrites_preserve_schema =
  QCheck.Test.make ~name:"every rule substitute keeps the output schema" ~count:80
    seed_arb (fun seed ->
      let t = random_tree micro seed in
      let original =
        List.map (fun (c : Relalg.Props.col_info) -> (c.id, c.ty))
          (Relalg.Props.schema_exn micro t)
      in
      List.for_all
        (fun (r : Optimizer.Rule.t) ->
          List.for_all
            (fun t' ->
              match Relalg.Props.schema micro t' with
              | Error e ->
                QCheck.Test.fail_reportf "%s invalid: %s" r.Optimizer.Rule.name e
              | Ok cols ->
                let now =
                  List.map (fun (c : Relalg.Props.col_info) -> (c.id, c.ty)) cols
                in
                now = original
                || QCheck.Test.fail_reportf "%s changed schema" r.Optimizer.Rule.name)
            (List.map Relalg.Hashcons.repr (r.apply micro (Relalg.Hashcons.intern t))))
        Optimizer.Rules.all)

let prop_optimizer_deterministic =
  QCheck.Test.make ~name:"optimizer is deterministic" ~count:25 seed_arb (fun seed ->
      let t = random_tree cat seed in
      match
        ( Optimizer.Engine.optimize ~options:quick_options cat t,
          Optimizer.Engine.optimize ~options:quick_options cat t )
      with
      | Ok a, Ok b ->
        a.cost = b.cost
        && Optimizer.Physical.equal a.plan b.plan
        && Optimizer.Engine.SSet.equal a.exercised b.exercised
      | Error _, Error _ -> true
      | _ -> false)

(* Well-behavedness (§5.2) with a comparison that is well-defined whether
   or not [max_trees] truncated the closure. When the closure completes,
   a from-scratch [Cost(q, not R)] can never beat [Cost(q)] — disabling
   only removes trees. Under truncation that from-scratch comparison is
   ill-posed (the all-rules and not-R searches reach different frontiers,
   so either may win — the historical flake at QCheck seed 454192), but
   the shared-exploration form survives: the not-R closure is filtered
   out of the very closure the all-rules search ranked, so its best cost
   is >= the all-rules optimum, truncated or not. [base.budget_truncated]
   picks the comparison; nothing is skipped. *)
let prop_cost_monotone =
  QCheck.Test.make ~name:"disabling rules never lowers the cost" ~count:20 seed_arb
    (fun seed ->
      let t = random_tree cat seed in
      match Optimizer.Engine.optimize ~options:quick_options cat t with
      | Error _ -> true
      | Ok base ->
        let g = Prng.create (seed + 1) in
        let exercised = Optimizer.Engine.SSet.elements base.exercised in
        let subset = Prng.sample g 2 exercised in
        let disabled =
          List.fold_left
            (fun s r -> Optimizer.Engine.SSet.add r s)
            Optimizer.Engine.SSet.empty subset
        in
        if base.budget_truncated then (
          match Optimizer.Engine.explore_shared ~options:quick_options cat t with
          | Error e -> QCheck.Test.fail_reportf "explore_shared failed: %s" e
          | Ok sh -> (
            match Optimizer.Engine.shared_cost sh ~disabled with
            | Error _ -> true (* every derivation used a disabled rule *)
            | Ok c ->
              c >= base.cost -. 1e-6
              || QCheck.Test.fail_reportf
                   "truncated: shared cost dropped from %.3f to %.3f disabling [%s]"
                   base.cost c (String.concat "; " subset)))
        else
          match
            Optimizer.Engine.optimize ~options:{ quick_options with disabled } cat t
          with
          | Error _ -> true
          | Ok r ->
            r.cost >= base.cost -. 1e-6
            || QCheck.Test.fail_reportf
                 "cost dropped from %.3f to %.3f disabling [%s]" base.cost r.cost
                 (String.concat "; " subset))

(* Regression for the budget-truncation flake family: the property must
   hold deterministically for ten consecutive QCheck seeds including
   454192, the seed that historically produced a truncated closure whose
   from-scratch comparison failed. *)
let test_cost_monotone_seeds () =
  for seed = 454192 to 454201 do
    QCheck.Test.check_exn ~rand:(Random.State.make [| seed |]) prop_cost_monotone
  done

let prop_plan_columns_match_schema =
  QCheck.Test.make ~name:"executed columns match the logical schema" ~count:25 seed_arb
    (fun seed ->
      let t = random_tree cat ~max_ops:6 seed in
      match Optimizer.Engine.optimize ~options:quick_options cat t with
      | Error _ -> true
      | Ok r -> (
        match Executor.Exec.run cat r.plan with
        | Error e -> QCheck.Test.fail_reportf "execution failed: %s" e
        | Ok res ->
          let expected =
            List.map (fun (c : Relalg.Props.col_info) -> c.id)
              (Relalg.Props.schema_exn cat t)
          in
          let got = Array.to_list (Executor.Resultset.cols res) in
          got = expected
          || QCheck.Test.fail_reportf "columns [%s] vs [%s]"
               (String.concat ", " (List.map Relalg.Ident.to_sql got))
               (String.concat ", " (List.map Relalg.Ident.to_sql expected))))

(* The paper's §2.3 methodology, as a property over random queries: for a
   random exercised rule, Plan(q) and Plan(q, not r) return the same bag. *)
let prop_rule_off_same_results =
  QCheck.Test.make ~name:"disabling an exercised rule preserves results" ~count:15
    seed_arb (fun seed ->
      let t = random_tree cat ~max_ops:6 seed in
      match Optimizer.Engine.optimize ~options:quick_options cat t with
      | Error _ -> true
      | Ok base -> (
        match Optimizer.Engine.SSet.elements base.exercised with
        | [] -> true
        | rules -> (
          let g = Prng.create (seed + 7) in
          let rule = Prng.pick g rules in
          let options =
            { quick_options with disabled = Optimizer.Engine.SSet.singleton rule }
          in
          match Optimizer.Engine.optimize ~options cat t with
          | Error _ -> true
          | Ok off -> (
            match (Executor.Exec.run cat base.plan, Executor.Exec.run cat off.plan) with
            | Ok r1, Ok r2 ->
              Executor.Resultset.equal_bag r1 r2
              || QCheck.Test.fail_reportf "results differ disabling %s on\n%s" rule
                   (L.to_string t)
            | Error e, _ | _, Error e -> QCheck.Test.fail_reportf "exec: %s" e))))

(* The compiled scalar evaluator (column references resolved to array
   offsets, operators dispatched once) must agree with the per-row AST
   interpreter on random expressions over random rows — including NULL
   (Kleene) logic and type errors, where both sides must fail alike. *)
let scalar_cols = [| Relalg.Ident.make "t" "a"; Relalg.Ident.make "t" "b" |]

let random_value g =
  match Prng.int g 6 with
  | 0 -> Value.Null
  | 1 | 2 -> Value.Int (Prng.int_in g (-3) 3)
  | 3 -> Value.Bool (Prng.bool g)
  | 4 -> Value.Float (Prng.float g 4.0 -. 2.0)
  | _ -> Value.Str (Prng.pick g [ "x"; "y" ])

let rec random_scalar g depth : Relalg.Scalar.t =
  let module S = Relalg.Scalar in
  if depth = 0 || Prng.chance g 0.3 then
    match Prng.int g 4 with
    | 0 -> S.Const (random_value g)
    | 1 -> S.col scalar_cols.(0)
    | _ -> S.col scalar_cols.(1)
  else
    let sub () = random_scalar g (depth - 1) in
    match Prng.int g 8 with
    | 0 -> S.Neg (sub ())
    | 1 -> S.Arith (Prng.pick g [ S.Add; S.Sub; S.Mul; S.Div ], sub (), sub ())
    | 2 -> S.Cmp (Prng.pick g [ S.Eq; S.Ne; S.Lt; S.Le; S.Gt; S.Ge ], sub (), sub ())
    | 3 -> S.And (sub (), sub ())
    | 4 -> S.Or (sub (), sub ())
    | 5 -> S.Not (sub ())
    | 6 -> S.IsNull (sub ())
    | _ -> S.IsNotNull (sub ())

(* The batch kernels are the batch path's one evaluator for the scalar
   language: a whole batch at a time, with an unboxed float path and
   per-batch CSE underneath. They must agree with the interpreter's
   [Eval] on values *and* on errors — same message, and the lowest
   erroring row's message (what a sequential scan would have raised). *)
let batch_agrees e rows =
  let attempt f = try Ok (f ()) with Invalid_argument m -> Error m in
  let by_row =
    Array.map
      (fun row ->
        let env id =
          if Relalg.Ident.equal id scalar_cols.(0) then row.(0) else row.(1)
        in
        attempt (fun () -> Executor.Eval.scalar env e))
      rows
  in
  let kernel = Executor.Batch.scalar scalar_cols e in
  (match
     ( attempt (fun () -> Executor.Batch.eval_column kernel rows),
       Array.find_opt Result.is_error by_row )
   with
  | Ok col, None ->
    Array.iteri
      (fun i v ->
        let want = Result.get_ok by_row.(i) in
        if Value.compare_total want v <> 0 then
          QCheck.Test.fail_reportf "batch %s vs row %s at %d on %s"
            (Value.to_sql v) (Value.to_sql want) i
            (Relalg.Scalar.to_sql e))
      col
  | Ok _, Some (Error m) ->
    QCheck.Test.fail_reportf "batch succeeded, rows fail with %s on %s" m
      (Relalg.Scalar.to_sql e)
  | Error m, None ->
    QCheck.Test.fail_reportf "batch failed with %s, rows succeed on %s" m
      (Relalg.Scalar.to_sql e)
  | Error got, Some (Error want) ->
    (* the batch error must be the *first* erroring row's *)
    if got <> want then
      QCheck.Test.fail_reportf "batch error %S, first row error %S on %s" got
        want (Relalg.Scalar.to_sql e)
  | _, Some (Ok _) -> assert false);
  (* ...and batch size must be invisible: a one-row batch per row gives
     the same column (or the same per-row error). *)
  Array.iteri
    (fun i row ->
      let single =
        attempt (fun () -> Executor.Batch.eval_column kernel [| row |])
      in
      match (by_row.(i), single) with
      | Ok a, Ok [| b |] when Value.compare_total a b = 0 -> ()
      | Error a, Error b when a = b -> ()
      | _ ->
        QCheck.Test.fail_reportf "singleton batch differs at row %d on %s" i
          (Relalg.Scalar.to_sql e))
    rows;
  true

let prop_batch_scalar_agrees =
  QCheck.Test.make
    ~name:"batch kernels agree with Eval.scalar (values and errors)" ~count:500
    seed_arb (fun seed ->
      let g = Prng.create seed in
      let e = random_scalar g 4 in
      batch_agrees e (Array.init 8 (fun _ -> [| random_value g; random_value g |])))

(* Float-only mode: with six value kinds above, an 8-row column is
   all-float with probability (1/6)^8, so whole batches almost never
   reach the unboxed evaluator. Here every column is NULL-free float,
   with 0.0 among the values (divisions hit zero and NULL out), and the
   arithmetic trees are built from a pool of earlier subtrees, so
   repeated occurrences hit the per-batch CSE memo. Comparisons, and
   nested AND/OR of comparisons over the same trees, evaluate some of
   them under a narrowed selection first and a wider one later. *)
let random_float g = if Prng.chance g 0.25 then 0.0 else Prng.float g 4.0 -. 2.0

let random_float_scalar g : Relalg.Scalar.t =
  let module S = Relalg.Scalar in
  let leaf () =
    if Prng.chance g 0.2 then S.Const (Value.Float (random_float g))
    else S.col (Prng.pick_arr g scalar_cols)
  in
  let pool = ref [ leaf (); leaf (); leaf () ] in
  for _ = 1 to 3 + Prng.int g 6 do
    let pick () = Prng.pick g !pool in
    let e =
      if Prng.chance g 0.15 then S.Neg (pick ())
      else S.Arith (Prng.pick g [ S.Add; S.Sub; S.Mul; S.Div ], pick (), pick ())
    in
    pool := e :: !pool
  done;
  let cmp () =
    S.Cmp
      ( Prng.pick g [ S.Eq; S.Ne; S.Lt; S.Le; S.Gt; S.Ge ],
        Prng.pick g !pool,
        Prng.pick g !pool )
  in
  let rec pred depth =
    if depth = 0 || Prng.chance g 0.3 then cmp ()
    else if Prng.bool g then S.And (pred (depth - 1), pred (depth - 1))
    else S.Or (pred (depth - 1), pred (depth - 1))
  in
  if Prng.chance g 0.25 then List.hd !pool else pred 2

let prop_batch_float_agrees =
  QCheck.Test.make
    ~name:"unboxed float batches agree with Eval.scalar" ~count:500 seed_arb
    (fun seed ->
      let g = Prng.create seed in
      let e = random_float_scalar g in
      batch_agrees e
        (Array.init 8 (fun _ ->
             [| Value.Float (random_float g); Value.Float (random_float g) |])))

(* Random predicates as filters, over a small typed table p(i INT, f
   DOUBLE, s VARCHAR), every column nullable: as a [FilterOp] and as a
   nested-loops join predicate of p against itself. The batch path must
   keep the same rows in the same order as the interpreter, or fail with
   the same message — type errors (NOT over a string, an int compared
   with a string) included. A random expression's two columns are
   mapped onto table columns; some tables carry no NULL, so float
   arithmetic over [f] takes the unboxed path. *)
let filter_catalog g =
  let open Schema in
  let nulls = Prng.pick g [ 0.0; 0.2 ] in
  let value v = if Prng.chance g nulls then Value.Null else v in
  let rows =
    Array.init 6 (fun _ ->
        [| value (Value.Int (Prng.int_in g (-3) 3));
           value (Value.Float (random_float g));
           value (Value.Str (Prng.pick g [ "x"; "y" ])) |])
  in
  Catalog.of_tables
    [ Table.create
        (make "p"
           [ column ~nullable:true "i" Datatype.TInt;
             column ~nullable:true "f" Datatype.TFloat;
             column ~nullable:true "s" Datatype.TString ])
        rows ]

let same_rows a b =
  let ra = Executor.Resultset.rows a and rb = Executor.Resultset.rows b in
  Array.length ra = Array.length rb
  && Array.for_all2
       (fun x y -> Array.for_all2 (fun u v -> Value.compare_total u v = 0) x y)
       ra rb

(* A batch outcome against the interpreter's: the same rows in the same
   order, or the same message. *)
let outcomes_agree plan batch interpreted =
  let show = Optimizer.Physical.to_string in
  match (batch, interpreted) with
  | Ok a, Ok b -> same_rows a b || QCheck.Test.fail_reportf "rows differ on %s" (show plan)
  | Error a, Error b ->
    a = b
    || QCheck.Test.fail_reportf "batch error %S, interpreter %S on %s" a b (show plan)
  | Error a, Ok _ -> QCheck.Test.fail_reportf "batch failed with %s on %s" a (show plan)
  | Ok _, Error b ->
    QCheck.Test.fail_reportf "interpreter failed with %s on %s" b (show plan)

let prop_filters_agree =
  QCheck.Test.make
    ~name:"random predicates filter alike in both executors" ~count:300
    seed_arb (fun seed ->
      let module P = Optimizer.Physical in
      let g = Prng.create seed in
      let fcat = filter_catalog g in
      let e = random_scalar g 4 in
      let column alias = Relalg.Ident.make alias (Prng.pick g [ "i"; "f"; "s" ]) in
      let onto x y =
        Relalg.Scalar.rename
          (fun id -> if Relalg.Ident.equal id scalar_cols.(0) then x else y)
          e
      in
      let scan alias = P.TableScan { table = "p"; alias } in
      let plans =
        [ P.FilterOp { pred = onto (column "l") (column "l"); child = scan "l" };
          P.NestedLoopsJoin
            { kind =
                Prng.pick g
                  L.[ Inner; LeftOuter; RightOuter; FullOuter; Semi; AntiSemi ];
              pred = onto (column "l") (column "r");
              left = scan "l";
              right = scan "r" } ]
      in
      List.for_all
        (fun plan ->
          outcomes_agree plan (Executor.Exec.run fcat plan)
            (Executor.Exec.run_interpreted fcat plan))
        plans)

(* The subplan memo of [Executor.Cache] serves a stored row array to
   every later plan containing that subplan, and never stores one that
   raised. Plans here come in groups sharing a base: random unary
   operators over [p AS l], then wrappers (another operator, a join
   with [p AS r], a [Concat] of the base with an extension of itself).
   Filters, projections and join predicates carry random expressions,
   so some bases raise. Every plan of a group, the first one twice, must
   give through the cache what the interpreter gives: the same rows in
   the same order, or the same message. *)
let random_shared_plans g =
  let module P = Optimizer.Physical in
  let module S = Relalg.Scalar in
  let l c = Relalg.Ident.make "l" c in
  let column alias = Relalg.Ident.make alias (Prng.pick g [ "i"; "f"; "s" ]) in
  let expr right =
    let e = random_scalar g 3 in
    let x = column "l" and y = column right in
    S.rename (fun id -> if Relalg.Ident.equal id scalar_cols.(0) then x else y) e
  in
  let scan alias = P.TableScan { table = "p"; alias } in
  let unary child =
    match Prng.int g 6 with
    | 0 -> P.FilterOp { pred = expr "l"; child }
    | 1 ->
      P.ComputeScalar
        { cols = [ (l "i", expr "l"); (l "f", S.col (l "f")); (l "s", S.col (l "s")) ];
          child }
    | 2 -> P.HashDistinct child
    | 3 -> P.SortOp { keys = [ (column "l", Prng.pick g L.[ Asc; Desc ]) ]; child }
    | 4 -> P.LimitOp { count = Prng.int g 5; child }
    | _ ->
      P.HashAggregate
        { keys = [ l "s" ];
          aggs =
            [ (l "i", Relalg.Aggregate.Count (S.col (l "i")));
              (l "f", Relalg.Aggregate.Sum (S.col (l "f"))) ];
          child }
  in
  let rec stack n child = if n = 0 then child else stack (n - 1) (unary child) in
  let base = stack (1 + Prng.int g 3) (scan "l") in
  let wrap () =
    match Prng.int g 4 with
    | 0 -> unary base
    | 1 ->
      P.NestedLoopsJoin
        { kind = Prng.pick g L.[ Inner; LeftOuter; FullOuter; Semi; AntiSemi ];
          pred = expr "r";
          left = base;
          right = scan "r" }
    | 2 -> P.Concat (base, unary base)
    | _ -> unary (unary base)
  in
  let first = wrap () in
  [ first; wrap (); first; base ]

let prop_cached_subplans_agree =
  QCheck.Test.make
    ~name:"plans sharing subplans run through the cache as interpreted" ~count:300
    seed_arb (fun seed ->
      let g = Prng.create seed in
      let fcat = filter_catalog g in
      List.for_all
        (fun plan ->
          outcomes_agree plan (Executor.Cache.run fcat plan)
            (Executor.Exec.run_interpreted fcat plan))
        (random_shared_plans g))

(* Whole-plan differential check: compiled execution vs the row-at-a-time
   interpreter on optimized random queries. *)
let prop_compiled_plan_agrees =
  QCheck.Test.make ~name:"compiled execution equals interpretation" ~count:15
    seed_arb (fun seed ->
      let t = random_tree cat ~max_ops:6 seed in
      match Optimizer.Engine.optimize ~options:quick_options cat t with
      | Error _ -> true
      | Ok r -> (
        match
          (Executor.Exec.run cat r.plan, Executor.Exec.run_interpreted cat r.plan)
        with
        | Ok a, Ok b ->
          Executor.Resultset.equal_bag a b
          || QCheck.Test.fail_reportf "results differ on\n%s" (L.to_string t)
        | Error _, Error _ -> true
        | Error e, Ok _ -> QCheck.Test.fail_reportf "compiled failed: %s" e
        | Ok _, Error e -> QCheck.Test.fail_reportf "interpreter failed: %s" e))

let prop_refresh_labels_disjoint =
  QCheck.Test.make ~name:"refreshed copies share no labels" ~count:100 seed_arb
    (fun seed ->
      let t = random_tree cat seed in
      let t' = Core.Arggen.refresh_labels t in
      let labels tree =
        Relalg.Logical.fold
          (fun acc n ->
            match n with Relalg.Logical.Get { alias; _ } -> alias :: acc | _ -> acc)
          [] tree
      in
      List.for_all (fun l -> not (List.mem l (labels t))) (labels t'))

let prop_pad_grows =
  QCheck.Test.make ~name:"padding never shrinks a tree and keeps validity" ~count:80
    seed_arb (fun seed ->
      let g = Prng.create seed in
      let ctx = { Core.Arggen.g; cat } in
      let t = Core.Random_gen.generate ~max_ops:4 ctx in
      let padded = Core.Arggen.pad ctx t 4 in
      L.size padded >= L.size t && Result.is_ok (Relalg.Props.validate cat padded))

(* The memoized (hash-consed, Cascades-style) engine must be
   observationally indistinguishable from the per-tree reference path,
   including under budgets that truncate the closure mid-enumeration. *)
let prop_memoized_engine_equivalent =
  QCheck.Test.make ~name:"memoized exploration equals the reference engine" ~count:25
    seed_arb (fun seed ->
      let t = random_tree cat seed in
      (* Vary the budget so some runs truncate and some complete. *)
      let max_trees = 50 + (seed mod 5 * 150) in
      let options = { quick_options with max_trees } in
      match
        ( Optimizer.Engine.optimize ~options cat t,
          Optimizer.Engine.Reference.optimize ~options cat t )
      with
      | Error _, Error _ -> true
      | Ok m, Ok r ->
        (m.cost = r.cost
        && m.trees_explored = r.trees_explored
        && m.budget_truncated = r.budget_truncated
        && Optimizer.Engine.SSet.equal m.exercised r.exercised
        && Optimizer.Engine.SSet.equal m.impl_exercised r.impl_exercised
        && L.equal m.best_logical r.best_logical)
        || QCheck.Test.fail_reportf
             "diverged (budget %d): cost %.3f vs %.3f, trees %d vs %d on\n%s"
             max_trees m.cost r.cost m.trees_explored r.trees_explored
             (L.to_string t)
      | _ -> QCheck.Test.fail_reportf "one engine failed, the other did not")

(* The cross-call rewrite memo and closure reuse are invisible: a call
   served from a memo warmed by other disabled sets, or handed the
   previous closure, equals a cold call (after [Hashcons.clear]) and the
   per-tree reference — under budgets small enough to truncate. *)
let prop_warm_memo_equals_cold =
  QCheck.Test.make ~name:"warm rewrite memo equals cold and reference" ~count:20
    seed_arb (fun seed ->
      let module E = Optimizer.Engine in
      let t = random_tree cat seed in
      let g = Prng.create (seed + 1) in
      let options = { quick_options with max_trees = 5 + Prng.int g 60 } in
      let subset () =
        E.SSet.of_list (Prng.sample g (Prng.int g 4) Optimizer.Rules.names)
      in
      let sets = [ subset (); subset (); E.SSet.empty; subset () ] in
      let optimize disabled = E.optimize ~options:{ options with disabled } cat t in
      let same (a : (E.result, string) result) (b : (E.result, string) result) =
        match (a, b) with
        | Error _, Error _ -> true
        | Ok a, Ok b ->
          Optimizer.Physical.equal a.plan b.plan
          && a.cost = b.cost
          && E.SSet.equal a.exercised b.exercised
          && a.trees_explored = b.trees_explored
          && a.budget_truncated = b.budget_truncated
        | _ -> false
      in
      ignore (E.optimize ~options cat t);
      let warm = List.map optimize sets in
      let reused = List.map (fun d -> ignore (optimize d); optimize d) sets in
      let cold =
        List.map
          (fun d ->
            Relalg.Hashcons.clear ();
            optimize d)
          sets
      in
      let reference =
        List.map
          (fun disabled ->
            E.Reference.optimize ~options:{ options with disabled } cat t)
          sets
      in
      List.for_all2 same warm cold
      && List.for_all2 same reused cold
      && List.for_all2 same reference cold
      || QCheck.Test.fail_reportf "warm, reused, cold or reference diverged (budget %d) on\n%s"
           options.max_trees (L.to_string t))

(* Shared exploration with nothing disabled is exactly a full optimize;
   with a disabled set it can only overestimate (§5.2 direction). *)
let prop_shared_cost_consistent =
  QCheck.Test.make ~name:"shared_cost agrees with optimize" ~count:20 seed_arb
    (fun seed ->
      let t = random_tree cat ~max_ops:6 seed in
      match Optimizer.Engine.optimize ~options:quick_options cat t with
      | Error _ -> true
      | Ok base -> (
        match Optimizer.Engine.explore_shared ~options:quick_options cat t with
        | Error e -> QCheck.Test.fail_reportf "explore_shared failed: %s" e
        | Ok sh ->
          let empty_ok =
            match
              Optimizer.Engine.shared_cost sh ~disabled:Optimizer.Engine.SSet.empty
            with
            | Ok c ->
              c = base.cost
              || QCheck.Test.fail_reportf "shared {} %.4f <> optimize %.4f" c
                   base.cost
            | Error e -> QCheck.Test.fail_reportf "shared_cost {} failed: %s" e
          in
          let g = Prng.create (seed + 13) in
          let subset =
            Prng.sample g 2 (Optimizer.Engine.SSet.elements base.exercised)
          in
          let disabled =
            List.fold_left
              (fun s r -> Optimizer.Engine.SSet.add r s)
              Optimizer.Engine.SSet.empty subset
          in
          let monotone =
            (* Always true, truncated or not: the surviving set is a
               subset of the very closure optimize searched. *)
            match Optimizer.Engine.shared_cost sh ~disabled with
            | Ok shc ->
              shc >= base.cost -. 1e-6
              || QCheck.Test.fail_reportf
                   "shared %.4f below the all-rules optimum %.4f" shc base.cost
            | Error _ -> true (* every derivation used a disabled rule *)
          in
          let conservative =
            (* Comparable to a from-scratch Cost(q, not R) only when the
               closure completed: under truncation the two searches have
               different frontiers and are incomparable. *)
            Optimizer.Engine.shared_truncated sh
            ||
            match
              ( Optimizer.Engine.shared_cost sh ~disabled,
                Optimizer.Engine.optimize
                  ~options:{ quick_options with disabled }
                  cat t )
            with
            | Ok shc, Ok scratch ->
              shc >= scratch.cost -. 1e-6
              || QCheck.Test.fail_reportf
                   "shared %.4f below scratch %.4f disabling [%s]" shc scratch.cost
                   (String.concat "; " subset)
            | Error _, _ -> true
            | Ok _, Error _ -> true
          in
          empty_ok && monotone && conservative))

let prop_ruleset_subset_of_registry =
  QCheck.Test.make ~name:"RuleSet only contains registered rules" ~count:50 seed_arb
    (fun seed ->
      let t = random_tree cat seed in
      match Optimizer.Engine.ruleset ~options:quick_options cat t with
      | Error _ -> true
      | Ok rs ->
        Optimizer.Engine.SSet.for_all
          (fun r -> List.mem r Optimizer.Rules.names)
          rs)

let to_alco = QCheck_alcotest.to_alcotest

let suite =
  [ ( "properties",
      [ to_alco prop_generated_trees_valid;
        to_alco prop_instantiation_valid;
        to_alco prop_rewrites_preserve_schema;
        to_alco prop_optimizer_deterministic;
        to_alco prop_cost_monotone;
        Alcotest.test_case "cost monotonicity at the historical flake seeds" `Slow
          test_cost_monotone_seeds;
        to_alco prop_plan_columns_match_schema;
        to_alco prop_rule_off_same_results;
        to_alco prop_batch_scalar_agrees;
        to_alco prop_batch_float_agrees;
        to_alco prop_filters_agree;
        to_alco prop_cached_subplans_agree;
        to_alco prop_compiled_plan_agrees;
        to_alco prop_refresh_labels_disjoint;
        to_alco prop_pad_grows;
        to_alco prop_memoized_engine_equivalent;
        to_alco prop_warm_memo_equals_cold;
        to_alco prop_shared_cost_consistent;
        to_alco prop_ruleset_subset_of_registry ] ) ]
