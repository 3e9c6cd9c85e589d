(** Exploration rules over aggregation, distinct and set operations:
    group-by pull-up/push-down across joins (with the functional-dependency
    style preconditions the paper cites), group-by/distinct elimination on
    keys, set-operation commutativity/associativity, and rewrites of
    INTERSECT/EXCEPT into semi/anti-semi joins. Stated declaratively in
    the rewrite DSL. *)

val dsl : Dsl.Rdsl.rule list
(** The family as DSL rules, in registry order. *)
