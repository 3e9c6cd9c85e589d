(** Rules as data: a declarative rewrite DSL over relation ([rv]),
    predicate ([pv]), projection-definition ([dv]) and sort-key ([sv])
    metavariables, with explicit side-conditions; an interpreter compiling
    a rule to the engine's [Rule.t]; and a bounded symbolic verification
    oracle ([Verify]) that checks both sides set-theoretically over small
    symbolic tables with distinguished rows and NULLs — no executor
    involved. Every registered exploration rule is a term of this
    language. *)

type rv = int
(** Relation metavariable (rendered A, B, C). *)

type pv = int
(** Predicate metavariable (rendered p0, p1). *)

type dv = int
(** Projection-definition metavariable (rendered d0, d1). *)

type sv = int
(** Sort-key metavariable (rendered s0, s1). *)

type scope =
  | Rels of rv list
      (** the output columns of these relation metavariables *)
  | Keys  (** the grouping keys of the rule's (single) GroupBy binder *)

(** Predicate expressions. [Ppart (e, s)] / [Presid (e, s)] are the two
    halves of [Rule.split_by_scope e s]; [Pfirst]/[Prest] split off the
    first conjunct; [Prename (e, a, b)] positionally renames [b]'s columns
    to [a]'s; [Psubst (d, e)] substitutes [d]'s definitions into [e];
    [Prow_eq (a, b)] is the null-safe positional equality of [a]'s and
    [b]'s rows ([Rule.null_safe_row_eq]). *)
type pexp =
  | Ptrue
  | Pvar of pv
  | Pand of pexp * pexp
  | Ppart of pexp * scope
  | Presid of pexp * scope
  | Pfirst of pv
  | Prest of pv
  | Prename of pexp * rv * rv
  | Psubst of dv * pexp
  | Prow_eq of rv * rv

type dexp =
  | Dvar of dv
  | Dcompose of dv * dv  (** outer-after-inner composition *)
  | Drename of rv * rv
      (** [Drename (a, b)]: [a]'s output columns defined positionally as
          [b]'s — the rename restoring a commuted set operation's
          column identifiers *)

(** Grouping keys of a [GroupBy] term. *)
type gkeys =
  | Gkeys  (** the binder's keys; the only form allowed on the lhs *)
  | Gkeys_with of rv  (** the binder's keys, then every output column of [rv] *)
  | Gkeys_within of rv  (** the binder's keys that are output columns of [rv] *)

(** Tree terms. On the lhs, [Filter]/[Join] must bind a [Pvar], [Proj] a
    [Dvar], [Sort] binds its keys, and [GroupBy Gkeys] binds the
    keys/aggs slot. Rhs-only: a [Filter_nontrivial] is emitted only when
    its predicate is non-trivial; [Keep_schema] is the identity
    projection restoring the lhs root's output columns; [Degenerate] is
    the bound GroupBy over single-row groups — a projection of the keys
    and of each aggregate's value on one row (SUM/MIN/MAX their
    argument, COUNT-star 1; the rule does not fire on COUNT or AVG). *)
type term =
  | Var of rv
  | Filter of pexp * term
  | Filter_nontrivial of pexp * term
  | Join of Relalg.Logical.join_kind * pexp * term * term
  | Proj of dexp * term
  | GroupBy of gkeys * term
  | Degenerate of term
  | Sort of sv * term
  | Distinct of term
  | UnionAll of term * term
  | Union of term * term
  | Intersect of term * term
  | Except of term * term
  | Keep_schema of term

(** Side-conditions. All but the last two are semantic — the rewrite is
    unsound without them, and [Verify] models them as constraints (all
    but [Keys_meet], whose failure case — a keyless aggregate's one row
    from an empty input — is outside the oracle's model).
    [Splittable] and [Some_pushed] are firing-only: they restrict when
    the rule fires, never its soundness, and the oracle verifies the
    rewrite without them (a superset of the fired cases). *)
type side =
  | Null_rejecting of pv * rv list
  | Key_within_equi of pv * rv * rv
  | Trivial of pv
  | Identity_proj of dv * rv
  | Scoped_within of pv * rv list
  | Has_key of rv  (** the relation has a candidate key *)
  | Key_within_keys of rv
      (** the relation has a key among the grouping keys that are its
          columns *)
  | Agg_free of pv  (** the predicate reads no aggregate output *)
  | Aggs_within of rv list  (** every aggregate reads only these relations *)
  | Keyed_on of pv * rv
      (** the predicate reads the relation's columns only through
          grouping keys *)
  | Keys_meet of rv  (** some grouping key is a column of the relation *)
  | Splittable of pv
  | Some_pushed of (pexp * scope) list

type rule = { name : string; lhs : term; rhs : term; sides : side list }

val firing_only : side -> bool

val pattern : rule -> Pattern.t
(** The engine pattern of the rule's lhs ([Var] becomes [Any]). *)

val rvars : rule -> rv list
(** Sorted distinct relation metavariables of the lhs. *)

val image :
  Storage.Catalog.t -> rule -> Relalg.Logical.t -> Relalg.Logical.t option
(** One application at the root: match the lhs, check the sides, build the
    rhs. [None] when the rule does not fire. *)

val compile : rule -> Rule.t
(** Compile to an engine rule. The compiled [apply] returns
    [image cat r tree] as a singleton (or []); every registered rule is
    built this way.
    The compiled rule's [fingerprint] is {!fingerprint}[ r], so editing
    any part of the definition (lhs, rhs, side conditions) changes the
    rule's content identity. *)

val fingerprint : rule -> string
(** Content digest of the rule's deterministic {!to_string} rendering —
    the fingerprint of every registered rule. *)

val mutations : rule -> (string * rule) list
(** Systematically broken variants (dropped side-conditions, dropped
    conjuncts/residuals/renames/substitutions, widened parts) for
    rule-definition fuzzing, labelled by mutation tag. *)

val to_string : rule -> string
val pp : Format.formatter -> rule -> unit

val soundness_note : rule -> string
(** Human-readable note separating semantic side-conditions from
    firing-only ones. *)

module Verify : sig
  type counterexample = {
    instances : (string * string) list;
        (** relation metavariable -> symbolic instance *)
    valuation : string list;  (** predicate atom assignments *)
    lhs_rows : string;
    rhs_rows : string;
  }

  type verdict =
    | Sound_bounded
        (** both sides agree on every symbolic instance within the bounds *)
    | Refuted of counterexample
    | Unknown of string  (** out of the oracle's fragment, or budget hit *)

  val verify : ?max_valuations:int -> rule -> verdict
  (** Enumerates small symbolic instances (up to two distinguished rows
      per relation, with duplicates and outer-join NULL padding), all
      predicate behaviors as boolean valuations over predicate atoms
      (discovered lazily), and all groupings (per grouped relation, an
      injective or a constant key function); compares both sides as row
      multisets. Set operations deduplicate over bag inputs, as the
      executor does; an aggregate is a function of its group's row
      multiset. Grouping yields no row from an empty input: the
      executor's one row for a keyless aggregate over an empty input is
      not modelled, so a rewrite unsound only for empty grouping keys
      verifies sound. Semantic side-conditions constrain the enumeration — key
      sides to duplicate-free instances and injective groupings, predicate
      sides to what a predicate atom may read; firing-only ones are
      ignored. Deterministic. *)

  val verdict_to_string : verdict -> string
end
