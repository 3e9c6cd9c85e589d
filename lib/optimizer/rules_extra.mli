(** Additional exploration rules: filter/sort commutation, filter
    distribution over INTERSECT/EXCEPT, distinct motion around UNION ALL,
    and cross-join commutativity. Registered after the original rules so
    experiment configurations indexing the registry by prefix are
    unaffected. Stated declaratively in the rewrite DSL. *)

val dsl : Dsl.Rdsl.rule list
(** The family as DSL rules, in registry order. *)
