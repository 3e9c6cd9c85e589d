(* The join family, stated in the rewrite DSL (lib/dsl/rdsl.ml);
   [Rules] compiles it into the registry. *)

module L = Relalg.Logical
module R = Dsl.Rdsl

(* Metavariable conventions: relations A=0, B=1, C=2; predicates p0, p1
   with join binders numbered innermost-first (so a Filter-over-Join lhs
   binds the join's predicate as p0 and the filter's as p1). *)
let a = R.Var 0
let b = R.Var 1
let c = R.Var 2
let p0 = R.Pvar 0
let p1 = R.Pvar 1

(* Push a filter below a join onto the side(s) legal for the kind:
   Filter[p1](Join[p0](A, B)) ->
   Filter?[resid](Join[p0](Filter?[part_A](A), Filter?[part_B](B))),
   the right part split from the residual left behind by the left split. *)
let push_select kind name ~left_ok ~right_ok : R.rule =
  let after_left = if left_ok then R.Presid (p1, R.Rels [ 0 ]) else p1 in
  let after_right = if right_ok then R.Presid (after_left, R.Rels [ 1 ]) else after_left in
  let wrap ok part child = if ok then R.Filter_nontrivial (part, child) else child in
  { name;
    lhs = R.Filter (p1, R.Join (kind, p0, a, b));
    rhs =
      R.Filter_nontrivial
        ( after_right,
          R.Join
            ( kind,
              p0,
              wrap left_ok (R.Ppart (p1, R.Rels [ 0 ])) a,
              wrap right_ok (R.Ppart (after_left, R.Rels [ 1 ])) b ) );
    sides =
      [ R.Some_pushed
          ((if left_ok then [ (p1, R.Rels [ 0 ]) ] else [])
          @ if right_ok then [ (after_left, R.Rels [ 1 ]) ] else []) ] }

(* A filter null-rejecting on the padded side turns an outer join into a
   stricter join. *)
let simplify_outer kind name ~reject_left ~result_kind : R.rule =
  { name;
    lhs = R.Filter (p1, R.Join (kind, p0, a, b));
    rhs = R.Filter (p1, R.Join (result_kind, p0, a, b));
    sides = [ R.Null_rejecting (1, [ (if reject_left then 0 else 1) ]) ] }

(* Join(A,B) -> Project[original order](Join(B,A)): the identity projection
   restores the output column order positional consumers rely on. *)
let commute kind name ~flipped : R.rule =
  { name;
    lhs = R.Join (kind, p0, a, b);
    rhs = R.Keep_schema (R.Join (flipped, p0, b, a));
    sides = [] }

let dsl : R.rule list =
  [ commute L.Inner "JoinCommute" ~flipped:L.Inner;
    (* (A join B) join C -> A join (B join C); conjuncts scoped to B u C
       sink into the new inner join *)
    { name = "JoinAssocLeft";
      lhs = R.Join (L.Inner, p1, R.Join (L.Inner, p0, a, b), c);
      rhs =
        R.Join
          ( L.Inner,
            R.Presid (R.Pand (p0, p1), R.Rels [ 1; 2 ]),
            a,
            R.Join (L.Inner, R.Ppart (R.Pand (p0, p1), R.Rels [ 1; 2 ]), b, c) );
      sides = [] };
    { name = "JoinAssocRight";
      lhs = R.Join (L.Inner, p1, a, R.Join (L.Inner, p0, b, c));
      rhs =
        R.Join
          ( L.Inner,
            R.Presid (R.Pand (p0, p1), R.Rels [ 0; 1 ]),
            R.Join (L.Inner, R.Ppart (R.Pand (p0, p1), R.Rels [ 0; 1 ]), a, b),
            c );
      sides = [] };
    { name = "CrossJoinToInnerJoin";
      lhs = R.Join (L.Cross, p0, a, b);
      rhs = R.Join (L.Inner, R.Ptrue, a, b);
      sides = [] };
    { name = "MergeSelectIntoJoin";
      lhs = R.Filter (p1, R.Join (L.Inner, p0, a, b));
      rhs = R.Join (L.Inner, R.Pand (p0, p1), a, b);
      sides = [] };
    { name = "SelectCrossToInnerJoin";
      lhs = R.Filter (p1, R.Join (L.Cross, p0, a, b));
      rhs = R.Join (L.Inner, p1, a, b);
      sides = [] };
    push_select L.Inner "PushSelectBelowJoin" ~left_ok:true ~right_ok:true;
    push_select L.Cross "PushSelectBelowCrossJoin" ~left_ok:true ~right_ok:true;
    push_select L.LeftOuter "PushSelectBelowLeftOuterJoin" ~left_ok:true ~right_ok:false;
    push_select L.RightOuter "PushSelectBelowRightOuterJoin" ~left_ok:false ~right_ok:true;
    push_select L.Semi "PushSelectBelowSemiJoin" ~left_ok:true ~right_ok:false;
    push_select L.AntiSemi "PushSelectBelowAntiSemiJoin" ~left_ok:true ~right_ok:false;
    simplify_outer L.LeftOuter "SimplifyLeftOuterJoin" ~reject_left:false
      ~result_kind:L.Inner;
    simplify_outer L.RightOuter "SimplifyRightOuterJoin" ~reject_left:true
      ~result_kind:L.Inner;
    simplify_outer L.FullOuter "SimplifyFullOuterJoinToRight" ~reject_left:false
      ~result_kind:L.RightOuter;
    simplify_outer L.FullOuter "SimplifyFullOuterJoinToLeft" ~reject_left:true
      ~result_kind:L.LeftOuter;
    commute L.LeftOuter "LeftOuterJoinCommute" ~flipped:L.RightOuter;
    commute L.RightOuter "RightOuterJoinCommute" ~flipped:L.LeftOuter;
    commute L.FullOuter "FullOuterJoinCommute" ~flipped:L.FullOuter;
    (* the paper's running example: R join (S LOJ T) -> (R join S) LOJ T,
       legal when the join predicate does not touch T *)
    { name = "JoinLeftOuterJoinAssoc";
      lhs = R.Join (L.Inner, p1, a, R.Join (L.LeftOuter, p0, b, c));
      rhs = R.Join (L.LeftOuter, p0, R.Join (L.Inner, p1, a, b), c);
      sides = [ R.Scoped_within (1, [ 0; 1 ]) ] };
    (* Semi(A,B,p) -> project_A(A join B) when B matches each A row at most
       once: the equi-join columns on B's side cover a key of B *)
    { name = "SemiJoinToInnerJoin";
      lhs = R.Join (L.Semi, p0, a, b);
      rhs = R.Keep_schema (R.Join (L.Inner, p0, a, b));
      sides = [ R.Key_within_equi (0, 0, 1) ] } ]

