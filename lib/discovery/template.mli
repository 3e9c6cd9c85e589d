(** Candidate rewrite-rule templates (discovery stage 1).

    A candidate is a pair of small logical-tree {e templates} over
    metavariables: relation variables ([Rel i], standing for arbitrary
    subtrees), predicate variables ([Pvar i], standing for arbitrary
    boolean scalars) and join-predicate variables. Enumeration is bounded
    by operator count and an operator alphabet; every pair is then
    {e standardized} — oriented and variable-renumbered into a normal
    form — so symmetric and alpha-equivalent candidates collapse, and the
    normal form's encoding as a [Logical] tree is interned through
    {!Relalg.Hashcons} so dedup is one id comparison per side. *)

type pred =
  | Pvar of int
  | Pand of int * int
      (** conjunction of two predicate variables; operand order is
          normalized away *)

type node =
  | Rel of int
  | Filter of pred * node
  | Join of int * node * node  (** inner join under a join-pred variable *)
  | Distinct of node
  | UnionAll of node * node
  | Union of node * node
  | Intersect of node * node
  | Except of node * node

type candidate = { lhs : node; rhs : node }

type alphabet =
  | Basic  (** Filter, Join, Distinct *)
  | Setops  (** Basic + UnionAll, Union *)
  | Full  (** Setops + Intersect, Except *)

val alphabet_of_string : string -> (alphabet, string) result
val alphabet_name : alphabet -> string

val ops : node -> int
(** Operator nodes ([Rel] leaves excluded). *)

val rel_vars : node -> int list
(** Distinct relation variables, sorted. *)

val has_setop : node -> bool

val equal : candidate -> candidate -> bool

val standardize : candidate -> candidate
(** Normal form: orient the pair (the side whose variable set strictly
    contains the other's — and otherwise the larger side — becomes the
    lhs, with a canonical-form comparison breaking exact ties), then
    renumber every variable class by first occurrence over the
    lhs-then-rhs preorder walk. Idempotent; invariant under swapping the
    sides and under injective renaming of the variables. *)

val normal_ids : candidate -> int * int
(** Hash-cons ids of the standardized sides' {!Logical} encodings —
    the dedup key. Ids are domain-local: compare ids obtained on one
    domain only, and never persist them. *)

val display : candidate -> string
(** Compact rendering, e.g. ["F[p0](F[p1](R0)) -> F[p0&p1](R0)"]. *)

val name_of : candidate -> string
(** Deterministic rule name ["Disc%08x"] derived from {!display} of the
    standardized candidate — stable across processes and job counts. *)

val enumerate : ?pool:Par.Pool.t -> alphabet -> max_nodes:int -> candidate list
(** All standardized, deduplicated candidates whose sides each use at
    most [max_nodes] operators over one or two relation variables (each
    side uses the same relation-variable set, linearly). Statically
    filtered: the two sides must expose compatible outputs and one
    side's variable set must contain the other's. Every seeded-unsound
    candidate expressible in [alphabet] is present. Deterministic and
    independent of [pool]. *)

val enumerate_counted :
  ?pool:Par.Pool.t -> alphabet -> max_nodes:int -> candidate list * int
(** {!enumerate} plus the raw pre-dedup pair count. *)

val known_sound : (string * candidate) list
(** Standardized forms of known-sound rewrites (named after the
    corresponding optimizer rule where one exists) — the rediscovery
    reference set. *)

val seeded_unsound : (string * candidate) list
(** Standardized forms of deliberately unsound candidates that
    validation must refute (the discovery analogue of [Core.Faults]). *)

val rediscovered_name : candidate -> string option
val seeded_name : candidate -> string option

val to_pattern : candidate -> Dsl.Pattern.t
(** Pattern of the standardized lhs ([Any] at relation variables). *)

val to_rdsl : ?name:string -> candidate -> Dsl.Rdsl.rule
(** Bridge into the rewrite DSL for the symbolic small-scope oracle:
    filter/join predicate variables become DSL predicate metavariables
    (join variables in a disjoint namespace), relation variables become
    relation metavariables, with no side-conditions. *)

val to_rule : ?name:string -> candidate -> Optimizer.Rule.t
(** Bridge into a real optimizer rule: match the lhs template (binding
    relation subtrees and predicates), build the rhs, and re-align the
    output schema to the matched tree's (identity projection when only
    column order changed, positional rename when the sides export
    different columns of equal type). [apply] returns [] whenever the
    match or the alignment fails. The rule's content fingerprint digests
    its name and the standardized candidate's canonical rendering. *)
