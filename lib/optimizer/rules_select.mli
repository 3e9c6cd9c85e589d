(** Exploration rules over filters and projections: merge/split, commuting
    with Project/GroupBy/Distinct, pushing below set operations, and
    trivial-operator elimination. Stated declaratively in the rewrite DSL. *)

val dsl : Dsl.Rdsl.rule list
(** The family as DSL rules, in registry order. *)
