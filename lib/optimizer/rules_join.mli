(** Exploration rules over joins: commutativity, associativity,
    select-pushdown, outer-join simplification and commutation,
    join/outer-join associativity (the paper's §3 example), semi-join to
    inner join. Stated declaratively in the rewrite DSL. *)

val dsl : Dsl.Rdsl.rule list
(** The family as DSL rules, in registry order. *)

val push_select :
  Relalg.Logical.join_kind ->
  string ->
  left_ok:bool ->
  right_ok:bool ->
  Dsl.Rdsl.rule
(** [push_select kind name ~left_ok ~right_ok] is the filter-below-join
    pushdown onto the sides enabled by the flags — the term behind the
    six PushSelectBelow*Join rules (and, with the padded side enabled,
    behind the LOJ right-push fault). *)
