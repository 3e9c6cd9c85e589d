(* The additional family, stated in the rewrite DSL (lib/dsl/rdsl.ml);
   [Rules] compiles it into the registry. *)

module L = Relalg.Logical
module R = Dsl.Rdsl

(* Metavariable conventions: relations A=0, B=1; predicate p0; sort keys
   s0. *)
let a = R.Var 0
let b = R.Var 1
let p0 = R.Pvar 0

let dsl : R.rule list =
  [ (* filtering commutes with sorting (result comparison is bag-based;
       the executor's sort is stable either way) *)
    { name = "PushSelectBelowSort";
      lhs = R.Filter (p0, R.Sort (0, a));
      rhs = R.Sort (0, R.Filter (p0, a));
      sides = [] };
    (* positionally equal rows give the predicate the same value on
       either side of an INTERSECT *)
    { name = "PushSelectBelowIntersect";
      lhs = R.Filter (p0, R.Intersect (a, b));
      rhs = R.Intersect (R.Filter (p0, a), R.Filter (R.Prename (p0, 0, 1), b));
      sides = [] };
    (* only the left branch of an EXCEPT may be filtered:
       {x in A : x not in B and p(x)} = filter(A) EXCEPT B *)
    { name = "PushSelectBelowExcept";
      lhs = R.Filter (p0, R.Except (a, b));
      rhs = R.Except (R.Filter (p0, a), b);
      sides = [] };
    (* the inverse of UnionToUnionAllDistinct *)
    { name = "DistinctUnionAllToUnion";
      lhs = R.Distinct (R.UnionAll (a, b));
      rhs = R.Union (a, b);
      sides = [] };
    (* deduplicating early on both branches cannot change the deduplicated
       union *)
    { name = "PushDistinctBelowUnionAll";
      lhs = R.Distinct (R.UnionAll (a, b));
      rhs = R.Distinct (R.UnionAll (R.Distinct a, R.Distinct b));
      sides = [] };
    { name = "CrossJoinCommute";
      lhs = R.Join (L.Cross, p0, a, b);
      rhs = R.Keep_schema (R.Join (L.Cross, p0, b, a));
      sides = [] } ]

