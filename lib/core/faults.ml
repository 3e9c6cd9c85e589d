module L = Relalg.Logical
module R = Dsl.Rdsl

(* Each buggy variant is its victim's DSL term with one change, compiled
   like any registered rule. It keeps the victim's name and pattern; its
   content fingerprint is the digest of the changed term, so injecting a
   fault invalidates warm-start caches keyed on rule content exactly like
   any other rule edit. *)

let victim name =
  match Optimizer.Rules.rdsl_of name with
  | Some r -> r
  | None -> invalid_arg ("Faults: no registered rule " ^ name)

(* The padded side enabled: pushes the right-scoped conjuncts below the
   NULL-padded side of a left outer join too, which drops padding rows
   the filter would have kept or keeps rows it should not. *)
let loj_right_push =
  Optimizer.Rules_join.push_select L.LeftOuter "PushSelectBelowLeftOuterJoin"
    ~left_ok:true ~right_ok:true

(* The null-rejection side dropped: turns Filter(LOJ) into Filter(Join)
   whether or not the filter rejects the padded rows. *)
let simplify_loj = { (victim "SimplifyLeftOuterJoin") with sides = [] }

(* The inner conjunct dropped: merges two stacked filters but keeps only
   the outer predicate. *)
let select_merge =
  let v = victim "SelectMerge" in
  { v with rhs = R.Filter (R.Pvar 0, R.Var 0) }

(* The key side dropped: pushes a group-by below a join whose other side
   may fan each group out, corrupting the aggregates. *)
let gbagg_push =
  let v = victim "GbAggPushBelowJoin" in
  { v with sides = List.filter (fun s -> s <> R.Key_within_keys 1) v.sides }

let faults =
  [ ( loj_right_push,
      "pushes filter conjuncts below the NULL-padded side of a left outer join" );
    (simplify_loj, "turns LOJ into inner join without the null-rejection precondition");
    (select_merge, "drops the inner filter's predicate");
    (gbagg_push, "pushes group-by below a join without the key precondition") ]

let names = List.map (fun ((r : R.rule), _) -> r.name) faults

let find name =
  match List.find_opt (fun ((r : R.rule), _) -> String.equal r.name name) faults with
  | Some f -> f
  | None -> invalid_arg ("Faults: no buggy variant for rule " ^ name)

let term name = fst (find name)

let inject name =
  let buggy = R.compile (term name) in
  List.map
    (fun (r : Optimizer.Rule.t) -> if String.equal r.name name then buggy else r)
    Optimizer.Rules.all

let describe name = snd (find name)
