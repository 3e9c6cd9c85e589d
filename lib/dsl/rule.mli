(** Transformation rules: (name, pattern, substitution) triples (§3.1).

    [apply] is the substitution function: given an interned tree whose
    root matches [pattern], it returns zero or more equivalent interned
    trees. Outputs are canonical nodes of the calling domain's
    hash-cons table, built over the input's own subtrees. Returning [] means
    the rule's preconditions (beyond the pattern) did not hold — the
    pattern is necessary, not sufficient. A rule is {e exercised} when
    [apply] returns at least one substitute. *)

type t = {
  name : string;
  pattern : Pattern.t;
  apply : Storage.Catalog.t -> Relalg.Hashcons.node -> Relalg.Hashcons.node list;
  fingerprint : string;
      (** Content digest identifying this rule's {e behaviour}, not just
          its name, as stated by the code constructing the rule ({!make}'s
          [~fingerprint]): registered, faulty and discovered rules alike
          digest their full [Rdsl] term. Editing a
          rule's definition under the same name changes the digest.
          Incremental maintenance and the warm-start matrix key are built
          on this. *)
  pattern_fp : string;
      (** Digest of the pattern alone. [fingerprint] differing while
          [pattern_fp] is unchanged classifies an edit as body-only — the
          case incremental maintenance can reuse slices across. *)
}

val make :
  fingerprint:string ->
  string ->
  Pattern.t ->
  (Storage.Catalog.t -> Relalg.Hashcons.node -> Relalg.Hashcons.node list) ->
  t
(** Wraps [apply] with the pattern check: the returned rule's [apply] is a
    no-op on trees whose root does not match [pattern]. When metrics are
    enabled, a non-matching root is additionally probed against the raw
    [apply]: if it would have produced substitutes, the
    [optimizer.rule.pattern_mismatch] counter (labelled with the rule
    name) is bumped — the rule's declared pattern and its implementation
    disagree, and the engine would silently never fire it.

    [~fingerprint] is the rule's content digest; the caller states it
    because only the caller knows what the rule's content is —
    [Rdsl.compile], the library's one caller, passes the digest of the
    DSL term. *)

val collect_matched : (unit -> 'a) -> 'a * string list
(** [collect_matched f] runs [f] with a domain-local collector installed
    and returns [f]'s result plus the sorted, deduplicated names of every
    rule whose pattern accepted some tree during the call. Because the
    pattern check in {!make} is the single gate in front of every rule
    body, this set is exactly the rules whose bodies could have
    influenced [f]'s result — the dependency set incremental maintenance
    records per suite target and per cost-matrix column. The collector is
    per-domain: [f] must not itself fan work out to other domains (wrap
    each pool task body instead). Nested collectors shadow the outer one
    for their extent. *)

val record_matched : string list -> unit
(** Add names to the calling domain's active collector, if any, as if
    those rules' patterns had just accepted a tree. For callers that
    replay rule applications from a cache: the optimizer engine applies
    rules once under a nested {!collect_matched}, stores the names with
    the rewrites, and records them again on every later use, so the
    dependency sets stay exact. *)

(** {2 Helpers shared by rule implementations} *)

val subst :
  (Relalg.Ident.t -> Relalg.Scalar.t option) -> Relalg.Scalar.t -> Relalg.Scalar.t
(** Substitutes column references by expressions. *)

val positional_rename :
  Relalg.Props.col_info list ->
  Relalg.Props.col_info list ->
  Relalg.Ident.t ->
  Relalg.Ident.t
(** [positional_rename from_cols to_cols] maps the i-th ident of
    [from_cols] to the i-th of [to_cols]; other idents map to themselves. *)

val split_by_scope :
  Relalg.Scalar.t -> Relalg.Ident.Set.t -> Relalg.Scalar.t * Relalg.Scalar.t
(** [split_by_scope pred cols] splits the conjuncts of [pred] into (those
    referencing only [cols] — and at least one column, so constant
    conjuncts stay behind —, the rest). Both sides are [Scalar.true_] when
    empty. *)

val identity_project :
  Relalg.Props.col_info list -> Relalg.Logical.t -> Relalg.Logical.t
(** Project re-exporting exactly the given columns (used by rules that
    change column order and must restore it). *)

val align :
  Storage.Catalog.t ->
  reference:Relalg.Hashcons.node ->
  Relalg.Hashcons.node ->
  (Relalg.Hashcons.node, string) result
(** [align cat ~reference n] makes [n] export [reference]'s output
    schema: [n] itself when the column idents agree in order, an
    identity projection when only their order differs, a positional
    rename when arities and column types agree. [Error] when the
    schemas are incomparable or either tree is ill-formed. The
    differential oracle aligns a candidate's rhs instance with it, and
    a discovered rule's [Rdsl.Align] rhs aligns its output to the tree
    it fired on, so the oracle accepts exactly what the rule can do. *)

val null_safe_row_eq :
  Relalg.Props.col_info list -> Relalg.Props.col_info list -> Relalg.Scalar.t
(** Pairwise null-safe equality predicate
    [(a1 = b1 OR (a1 IS NULL AND b1 IS NULL)) AND ...] between two
    positionally-matched column lists. *)
