(** The optimizer's search engine.

    A Volcano-style exhaustive transformation closure: starting from the
    input logical tree, every enabled exploration rule is applied at every
    node of every (deduplicated) tree until fixpoint or budget; every
    explored tree is then costed through the implementation rules, with
    planning memoized per logical subtree. The engine provides the two
    extensions the paper requires of the DBMS (§2.3):

    - tracking which rules are exercised during an optimization
      ([RuleSet(q)], the [exercised] field), and
    - optimizing with a given set of rules disabled
      ([Plan(q, ¬R)], the [disabled] option).

    Because disabling a rule only removes trees from the closure (and
    plans from the implementation alternatives), the engine is
    "well-behaved" in the paper's §5.2 sense: [Cost(q) <= Cost(q, ¬R)]
    whenever the closure completes within budget.

    Internally every tree is hash-consed ({!Relalg.Hashcons}): the
    closure's seen set, the rewrite memo, the planner cache and the
    cardinality memos all key on the interned node id — one int compare —
    and the rewrites of each distinct subtree are computed once and
    replayed for every containing tree (Cascades-memo behaviour). The
    original recompute-per-tree engine survives only as {!Reference}, an
    entry point for tests and benchmarks; both enumerate rewrites in the
    same order, so they admit bit-identical closures even when
    [max_trees] truncates — the equivalence the property tests assert. *)

module SSet : Set.S with type elt = string

type options = {
  disabled : SSet.t;  (** rule names (logical or implementation) to turn off *)
  max_trees : int;  (** exploration budget; default 1200 *)
  max_growth : int;  (** max extra operators over the input size; default 6 *)
}

val default_options : options

type result = {
  best_logical : Relalg.Logical.t;
  plan : Physical.t;
  cost : float;
  exercised : SSet.t;  (** logical (exploration) rules exercised *)
  impl_exercised : SSet.t;  (** implementation rules exercised *)
  trees_explored : int;
  budget_truncated : bool;
      (** the [max_trees] budget truncated the closure: some rewrites
          were discovered but never explored, so [exercised] (and the
          chosen plan) may under-report what an unbounded search would
          find. Callers doing coverage analysis should surface this. *)
}

val optimize :
  ?options:options ->
  ?rules:Rule.t list ->
  Storage.Catalog.t ->
  Relalg.Logical.t ->
  (result, string) Stdlib.result
(** Full optimization: explore, then cost. Fails when the input tree is
    invalid, or no physical plan exists (e.g. all implementation rules for
    some operator are disabled). [rules] overrides the exploration-rule
    registry (default {!Rules.all}) — used to inject deliberately broken
    rules in correctness-testing demonstrations. *)

(** The per-tree reference engine, for equivalence tests and
    before/after benchmarks — not a production path. *)
module Reference : sig
  val optimize :
    ?options:options ->
    ?rules:Rule.t list ->
    Storage.Catalog.t ->
    Relalg.Logical.t ->
    (result, string) Stdlib.result
  (** {!optimize} with rule applications recomputed at every node of
      every explored tree instead of replayed from the per-subtree
      memo: the same closure loop, costing pass and result, only
      slower. *)
end

val ruleset :
  ?options:options ->
  ?rules:Rule.t list ->
  Storage.Catalog.t ->
  Relalg.Logical.t ->
  (SSet.t, string) Stdlib.result
(** [RuleSet(q)]: the logical rules exercised when optimizing [q] —
    exploration only, skipping the costing phase (used by the coverage
    experiments, which never execute queries). *)

val implementation_rule_names : string list
(** Names of the implementation rules (disjoint from {!Rules.names}). *)

(** {2 Shared exploration}

    The compression algorithms need [Cost(q, ¬R)] for the same query
    under many different disabled sets (one per edge of the suite-versus-
    target cost matrix, Figures 12–14). Re-running the full closure for
    each is wasteful: by the engine's well-behavedness, the closure under
    [¬R] is exactly the subset of the full closure derivable without the
    rules in [R]. {!explore_shared} explores once with all rules enabled
    and tags every tree with the minimal sets of rule names used along
    its derivation paths; {!shared_cost} then serves any [¬R] by keeping
    the trees with a tag set disjoint from [R] and re-costing — a cheap
    filtered pass over an already-built closure, through a plan memo
    shared across all the passes.

    Exact when the closure completes within budget and the per-tree tag
    antichain never overflows its cap; tag-cap overflow alone is
    conservative in the direction §5.2 allows (a tree may be excluded
    from some [¬R] closure, never wrongly included, so the reported cost
    is >= the from-scratch one). Under budget {e truncation} the shared
    and from-scratch costs become incomparable — both are upper bounds on
    the untruncated [Cost(q, ¬R)], but the all-rules frontier differs
    from the [¬R] frontier, so either may win. Two facts survive
    truncation: [shared_cost ~disabled:SSet.empty] equals {!optimize}'s
    cost exactly, and any [shared_cost] is >= the all-rules optimum
    (the surviving trees are a subset of the very closure it searched). *)

type shared

val explore_shared :
  ?options:options ->
  ?rules:Rule.t list ->
  Storage.Catalog.t ->
  Relalg.Logical.t ->
  (shared, string) Stdlib.result
(** One full exploration with derivation tags, reusable for any disabled
    set. Fails when the input tree is invalid. *)

val shared_cost : shared -> disabled:SSet.t -> (float, string) Stdlib.result
(** Best plan cost over the trees of the shared closure derivable without
    [disabled]; implementation rules in [disabled] are honoured by the
    costing pass. Fails when no surviving tree has a physical plan. *)

val shared_truncated : shared -> bool
(** The tree budget truncated the underlying closure (costs for non-empty
    disabled sets are then conservative upper bounds). *)

val shared_exercised : shared -> SSet.t
(** Logical rules exercised by the underlying (all-rules) exploration. *)

val shared_trees : shared -> int
(** Number of trees in the shared closure. *)

(** {2 Telemetry}

    When [Obs.Metrics] collection is enabled the engine feeds:

    - ["optimizer.rule.attempts"{rule}] — rule application attempts
      (one per rule per node of every *distinct* subtree; under
      {!Reference.optimize}, of every node of every explored tree);
    - ["optimizer.rule.rewrites"{rule}] — rewrites those attempts
      produced (so [rewrites/attempts] is the rule's match rate);
    - ["optimizer.rule.match_ns"{rule}] — latency histogram of one
      application attempt, in nanoseconds;
    - ["optimizer.explore.trees"], ["optimizer.explore.queue_depth"],
      ["optimizer.explore.budget_exhausted"] — closure statistics;
    - ["optimizer.rewrite_memo.hits"/"optimizer.rewrite_memo.misses"] —
      the per-subtree rewrite memo (hit rate is the Cascades-style
      sharing factor of the closure);
    - ["optimizer.memo.hits"/"optimizer.memo.misses"] — the planner's
      per-subtree memo table;
    - ["optimizer.hashcons.nodes"] — live interned nodes (gauge);
    - ["optimizer.shared.explorations"/"optimizer.shared.cost_passes"] —
      shared-exploration usage.

    With a trace sink installed, [optimize] wraps exploration and
    costing in ["engine.explore"]/["engine.cost"] spans (shared
    exploration uses ["engine.explore_shared"]) and emits an
    ["explore.budget_exhausted"] instant event on truncation. *)
