(* The aggregation / distinct / set-operation family, stated in the
   rewrite DSL (lib/dsl/rdsl.ml); [Rules] compiles it into the registry. *)

module L = Relalg.Logical
module R = Dsl.Rdsl

(* Metavariable conventions: relations A=0, B=1, C=2; predicate p0; sort
   keys s0 (outermost first), s1. *)
let a = R.Var 0
let b = R.Var 1
let c = R.Var 2
let p0 = R.Pvar 0

(* Set-operation commutes; a positional-rename projection maps the
   output back to the left branch's column identifiers. *)
let setop_commute name mk : R.rule =
  { name; lhs = mk a b; rhs = R.Proj (R.Drename (0, 1), mk b a); sides = [] }

let dsl : R.rule list =
  [ (* Join(GbAgg(A), B) -> GbAgg'(Join(A, B)), regrouping on the original
       keys plus all of B's columns: every A-row of a group joins the same
       B rows when the predicate reads no aggregate, and a duplicate-free B
       keeps the wider grouping from collapsing distinct B rows. *)
    { name = "GbAggPullAboveJoin";
      lhs = R.Join (L.Inner, p0, R.GroupBy (R.Gkeys, a), b);
      rhs = R.Keep_schema (R.GroupBy (R.Gkeys_with 1, R.Join (L.Inner, p0, a, b)));
      sides = [ R.Agg_free 0; R.Has_key 1 ] };
    (* GbAgg(Join(A, B)) -> Join(GbAgg'(A), B): aggregates read only A; the
       predicate reads A only through grouping keys (groups survive or die
       whole); B has a key among its grouping keys (no per-group fan-out);
       and at least one grouping key comes from A (a keyless aggregate of
       an empty A would still yield a row). *)
    { name = "GbAggPushBelowJoin";
      lhs = R.GroupBy (R.Gkeys, R.Join (L.Inner, p0, a, b));
      rhs = R.Keep_schema (R.Join (L.Inner, p0, R.GroupBy (R.Gkeys_within 0, a), b));
      sides = [ R.Aggs_within [ 0 ]; R.Keyed_on (0, 0); R.Key_within_keys 1; R.Keys_meet 0 ] };
    (* Grouping on a key of the input: every group has exactly one row, so
       SUM/MIN/MAX degenerate to their argument and COUNT-star to 1. *)
    { name = "GbAggEliminateOnKey";
      lhs = R.GroupBy (R.Gkeys, a);
      rhs = R.Degenerate a;
      sides = [ R.Key_within_keys 0 ] };
    { name = "DistinctElimOnKey"; lhs = R.Distinct a; rhs = a; sides = [ R.Has_key 0 ] };
    { name = "UnionToUnionAllDistinct";
      lhs = R.Union (a, b);
      rhs = R.Distinct (R.UnionAll (a, b));
      sides = [] };
    setop_commute "UnionAllCommute" (fun x y -> R.UnionAll (x, y));
    setop_commute "UnionCommute" (fun x y -> R.Union (x, y));
    setop_commute "IntersectCommute" (fun x y -> R.Intersect (x, y));
    { name = "UnionAllAssocLeft";
      lhs = R.UnionAll (R.UnionAll (a, b), c);
      rhs = R.UnionAll (a, R.UnionAll (b, c));
      sides = [] };
    { name = "UnionAllAssocRight";
      lhs = R.UnionAll (a, R.UnionAll (b, c));
      rhs = R.UnionAll (R.UnionAll (a, b), c);
      sides = [] };
    (* INTERSECT / EXCEPT as (anti-)semi-joins under null-safe row
       equality *)
    { name = "IntersectToSemiJoin";
      lhs = R.Intersect (a, b);
      rhs = R.Distinct (R.Join (L.Semi, R.Prow_eq (0, 1), a, b));
      sides = [] };
    { name = "ExceptToAntiSemiJoin";
      lhs = R.Except (a, b);
      rhs = R.Distinct (R.Join (L.AntiSemi, R.Prow_eq (0, 1), a, b));
      sides = [] };
    { name = "SortMerge"; lhs = R.Sort (0, R.Sort (1, a)); rhs = R.Sort (0, a); sides = [] } ]

