(* The select/project family, stated in the rewrite DSL (lib/dsl/rdsl.ml);
   [Rules] compiles it into the registry. *)

module R = Dsl.Rdsl

(* Metavariable conventions: relations A=0, B=1; predicates p0 (outermost
   binder first), p1; projection definitions d0 (outermost first), d1. *)
let a = R.Var 0
let b = R.Var 1
let p0 = R.Pvar 0
let p1 = R.Pvar 1

let dsl : R.rule list =
  [ { name = "SelectMerge";
      lhs = R.Filter (p0, R.Filter (p1, a));
      rhs = R.Filter (R.Pand (p0, p1), a);
      sides = [] };
    { name = "SelectSplit";
      lhs = R.Filter (p0, a);
      rhs = R.Filter (R.Pfirst 0, R.Filter (R.Prest 0, a));
      sides = [ R.Splittable 0 ] };
    { name = "SelectOverProject";
      lhs = R.Filter (p0, R.Proj (R.Dvar 0, a));
      rhs = R.Proj (R.Dvar 0, R.Filter (R.Psubst (0, p0), a));
      sides = [] };
    { name = "SelectBelowGbAgg";
      (* conjuncts over the grouping keys commute with aggregation *)
      lhs = R.Filter (p0, R.GroupBy (R.Gkeys, a));
      rhs =
        R.Filter_nontrivial
          (R.Presid (p0, R.Keys), R.GroupBy (R.Gkeys, R.Filter (R.Ppart (p0, R.Keys), a)));
      sides = [ R.Some_pushed [ (p0, R.Keys) ] ] };
    { name = "SelectBelowUnionAll";
      lhs = R.Filter (p0, R.UnionAll (a, b));
      rhs = R.UnionAll (R.Filter (p0, a), R.Filter (R.Prename (p0, 0, 1), b));
      sides = [] };
    { name = "SelectBelowUnion";
      lhs = R.Filter (p0, R.Union (a, b));
      rhs = R.Union (R.Filter (p0, a), R.Filter (R.Prename (p0, 0, 1), b));
      sides = [] };
    { name = "SelectBelowDistinct";
      lhs = R.Filter (p0, R.Distinct a);
      rhs = R.Distinct (R.Filter (p0, a));
      sides = [] };
    { name = "RemoveTrivialSelect";
      lhs = R.Filter (p0, a);
      rhs = a;
      sides = [ R.Trivial 0 ] };
    { name = "ProjectMerge";
      lhs = R.Proj (R.Dvar 0, R.Proj (R.Dvar 1, a));
      rhs = R.Proj (R.Dcompose (0, 1), a);
      sides = [] };
    { name = "RemoveIdentityProject";
      lhs = R.Proj (R.Dvar 0, a);
      rhs = a;
      sides = [ R.Identity_proj (0, 0) ] } ]

