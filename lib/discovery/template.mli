(** Candidate rewrite-rule templates (discovery stage 1).

    A candidate is a pair of small logical-tree {e templates} over
    metavariables: relation variables ([Rel i], standing for arbitrary
    subtrees), predicate variables ([Pvar i], standing for arbitrary
    boolean scalars) and join-predicate variables. Enumeration is bounded
    by operator count and an operator alphabet; every pair is then
    {e standardized} — oriented and variable-renumbered into a normal
    form — so symmetric and alpha-equivalent candidates collapse, and
    dedup compares normal forms structurally. Candidates are pure data:
    {!to_rdsl} turns one into a rewrite-DSL term, which is how discovery
    compiles, ranks and verifies it. *)

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

val to_rdsl : ?name:string -> candidate -> Dsl.Rdsl.rule
(** The standardized candidate as a rewrite-DSL rule (named [name], by
    default {!name_of}): filter/join predicate variables become DSL
    predicate metavariables (join variables in a disjoint namespace),
    relation variables become relation metavariables, a [Pand] lhs
    filter splits the matched predicate's conjuncts, and the rhs is
    wrapped in [Align] so it exports the matched tree's output schema
    (the rule does not fire where it cannot). No side-conditions.
    [Dsl.Rdsl.compile (to_rdsl ~name c)] is the engine rule discovery
    ranks and promotes, fingerprinted by the term's digest;
    [Dsl.Rdsl.Verify.verify] checks the same term symbolically. *)
