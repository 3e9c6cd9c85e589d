(** Differential validation of candidate rewrites (discovery stage 2).

    Each candidate's metavariables are instantiated several times over
    the catalog — relation variables become concrete subtrees
    ({!Core.Arggen} machinery), predicate and join variables become
    data-driven scalars scoped to every occurrence — and the two
    instantiated sides are executed and bag-compared through
    {!Triage.Differential}. One diverging instance refutes the
    candidate; enough clean instances and it survives; anything else
    (instantiation kept failing, executions errored) is inconclusive
    and the candidate is dropped without prejudice.

    Instance 0 is adversarial rather than random: every relation
    variable is a single-column projection of a column with duplicated
    values, the worst case for candidates that confuse bag and set
    semantics ([Distinct]/[Union] droppers survive uniform-unique data
    unscathed). *)

type params = {
  seed : int;
  trials : int;  (** instantiation attempts per candidate; default 6 *)
  min_instances : int;  (** clean instances required to survive; default 2 *)
  budget : int;  (** differential planning budget; default 1 *)
}

val default_params : params

(** The metavariable assignment behind an instance — kept on refuted
    candidates so the counterexample can be minimized move-by-move
    without leaving the candidate's instance space. *)
type assignment = {
  rels : (int * Relalg.Logical.t) list;
  preds : (int * Relalg.Scalar.t) list;
  joins : (int * Relalg.Scalar.t) list;
}

type refutation = {
  assignment : assignment;
  lhs_instance : Relalg.Logical.t;
  rhs_instance : Relalg.Logical.t;
  divergence : Triage.Divergence.t;
  instance_index : int;
}

type verdict =
  | Survived of int  (** clean instances *)
  | Refuted of refutation
  | Inconclusive of string

type result = {
  cand : Template.candidate;
  name : string;
  verdict : verdict;
  checks : int;  (** differential checks run *)
}

type mode =
  | Adversarial  (** duplicated-value projections, data-driven predicates *)
  | Adversarial_weak  (** duplicated-value projections, always-true predicates *)
  | Random

val mode_of_instance : int -> mode
(** Instance 0 is {!Adversarial}, 1 is {!Adversarial_weak}, the rest
    {!Random}. *)

val instantiate :
  Storage.Catalog.t ->
  Storage.Prng.t ->
  mode:mode ->
  Template.candidate ->
  (assignment * Relalg.Logical.t * Relalg.Logical.t) option
(** One instantiation attempt; [None] when no valid assignment was
    found (predicate scoping or set-op alignment failed). *)

val build :
  assignment -> Template.candidate ->
  (Relalg.Logical.t * Relalg.Logical.t) option
(** Re-instantiate both sides from an (edited) assignment; [None] when
    the assignment no longer covers the candidate's variables. *)

val run :
  ?pool:Par.Pool.t ->
  params ->
  Storage.Catalog.t ->
  (string * Template.candidate) list ->
  result list
(** Validate every (name, candidate) pair. Fans out over the pool with
    per-candidate PRNG substreams and disjoint alias ranges; results
    are byte-identical for any job count. *)

type minimized = {
  refutation : refutation;  (** with minimized instances *)
  nodes_before : int;  (** lhs+rhs operator nodes before *)
  nodes_after : int;
  steps : int;  (** accepted shrink moves *)
  min_checks : int;  (** differential checks spent minimizing *)
}

val minimize :
  ?max_checks:int ->
  params ->
  Storage.Catalog.t ->
  Template.candidate ->
  refutation ->
  minimized
(** Greedy assignment-level descent: try one-edit shrinks of each
    relation subtree ({!Triage.Reduce.candidates}) and conjunct drops /
    [true_] for predicate and join variables, keeping any move that
    still yields a valid, diverging instance pair. The result is still
    an instance of the candidate. *)
