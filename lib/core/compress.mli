(** The test-suite compression problem (§4) and its algorithms (§5).

    Given the bipartite rule/query graph implied by a {!Suite.t} — node
    cost [Cost(q)], edge cost [Cost(q, ¬R)] — find, for every target, [k]
    covering queries minimizing the total execution cost
    [Σ_{q used} Cost(q) + Σ_{edges} Cost(q, ¬R)].

    - {!baseline} — the paper's BASELINE: each target keeps the queries
      generated for it, no sharing (§2.3).
    - {!smc} — the greedy Constrained Set-Multicover heuristic (Figure 5);
      ignores edge costs.
    - {!topk} — TopKIndependent (Figure 6); per target, the [k] cheapest
      edges. Factor-2 approximation. With [~exploit_monotonicity:true],
      edge-cost computations are pruned using
      [Cost(q) <= Cost(q, ¬R)] (§5.3.1, Figure 14).

    Every edge-cost computation is one optimizer invocation, counted per
    algorithm so Figure 14 can be reproduced. *)

type edge_costs
(** Memoized [Cost(q, ¬R)] service over a suite. The service explores
    each query once with all rules enabled ({!Framework.explore_shared})
    and serves every disabled-set edge for that query as a cheap
    filtered re-costing pass — turning the R×Q cost matrix from R×Q full
    optimizations into Q explorations plus R×Q costing passes. A shared
    exploration fails only when the query is invalid, which every
    [Cost(q, ¬R)] optimization would reject too, so that query's edges
    are all [infinity] with no further optimizer invocation. The
    per-edge reference the tests and benchmarks compare against is the
    {!Framework.cost}[ ~disabled] call, made directly. *)

val edge_costs :
  ?disk:Storage.Diskcache.t ->
  ?warm_edges:((int * int) * float) list ->
  Framework.t ->
  Suite.t ->
  edge_costs
(** With [?disk], the service warm-starts from a previously spilled
    edge-cost matrix, keyed by a hash of the catalog contents, the
    rule-content fingerprints, and the suite (queries, targets, [k],
    per-target picks) — any drift, including editing a rule's body under
    an unchanged name, invalidates the entry. [?warm_edges] injects
    additional warm cells (the incremental layer's manifest-surviving
    slice, already re-indexed to this suite). A warm-served edge still
    counts as one edge computation (so warm and cold runs produce
    byte-identical solutions) but skips the exploration/costing work;
    the extra counters [compress.matrix.disk_edges_loaded] and
    [compress.matrix.disk_served] record the savings. *)

val edge_cost : edge_costs -> target_idx:int -> query_idx:int -> float
(** Infinity when no plan exists with the rules disabled. *)

val save_matrix : edge_costs -> unit
(** Spill every known edge (computed this run or inherited warm) back to
    the attached disk cache; no-op without [?disk]. The first call always
    stores; a later one only if the service computed a cell since its
    last store (each store bumps [compress.matrix.stores]). The
    algorithms below call this before returning. *)

val prefetch : ?pool:Par.Pool.t -> edge_costs -> (int * int) list -> unit
(** [prefetch ?pool ec pairs] fills the memo for the given
    [(target_idx, query_idx)] pairs, partitioned by query index so each
    worker owns one query's shared exploration and its edges. Results
    are merged on the calling domain in task order: the memo contents,
    {!invocations_used}, and every subsequent {!edge_cost} are identical
    whatever the pool size ([Par.Pool.sequential], the default, is the
    reference). Already-memoized and duplicate pairs are skipped. *)

val invocations_used : edge_costs -> int
(** Distinct edge computations so far. Each is one unit of the paper's
    abstract optimizer work (Figure 14's x-axis), however it was served;
    the concrete count of full optimizer runs is
    {!Framework.invocations}. *)

val computed_edges : edge_costs -> int
(** Edges that actually ran an exploration/costing pass this run. *)

val warm_served_edges : edge_costs -> int
(** Edges served from the warm tier (spilled matrix or manifest cells)
    — [computed_edges + warm_served_edges = invocations_used]. *)

val snapshot : edge_costs -> ((int * int) * float) list
(** Every cell the service knows — computed this run or inherited warm —
    as sorted ((target index, query index), cost); what the incremental
    manifest persists. *)

val column_deps : edge_costs -> (int * string list) list
(** Per query column with at least one computed edge: the sorted names
    of every rule whose pattern matched while computing that column (its
    shared exploration). A rule absent from a column's set cannot change
    the column's costs via a body-only edit, except through the disabled
    sets — which is why the incremental
    reuse criterion exempts the rules a cell's own target disables. *)

type solution = {
  assignment : (Suite.target * (int * float) list) list;
      (** per target: the chosen (query index, edge cost) pairs *)
  total_cost : float;
  invocations : int;
      (** optimizer invocations consumed building the solution: the
          distinct edges this algorithm requested, however they were
          served — the same on a fresh, shared or pre-warmed service *)
  under_covered : (Suite.target * int) list;
      (** targets assigned fewer than [k] queries, with the deficit
          [k - assigned] — the suite has no [k] covering queries for
          them, so the solution is weaker than requested there. Empty
          when every target got its full [k]. *)
}

(** The optional [pool] parallelizes the edge-cost matrix fill via
    {!prefetch}; solutions are identical for any pool size. The optional
    [ec] supplies the edge-cost service — one built with [?disk] and
    [?warm_edges] (see {!edge_costs}) warm-starts the matrix, and every
    algorithm spills the service's matrix back to its disk tier on
    completion. Without [ec] each call builds a fresh, disk-free service.
    A service may be shared by several algorithms: each solution,
    [invocations] included, is identical to the one a fresh service
    gives. *)

val baseline :
  ?pool:Par.Pool.t ->
  ?ec:edge_costs ->
  Framework.t ->
  Suite.t ->
  solution

val smc :
  ?pool:Par.Pool.t ->
  ?ec:edge_costs ->
  Framework.t ->
  Suite.t ->
  solution

val topk :
  ?exploit_monotonicity:bool ->
  ?pool:Par.Pool.t ->
  ?ec:edge_costs ->
  Framework.t ->
  Suite.t ->
  solution
(** Default [exploit_monotonicity] is [false] (the naive variant that
    computes every edge cost). With [~exploit_monotonicity:true] the
    edge scan is adaptive and [pool] is ignored (the scan stays
    sequential). *)

(** {2 Internals exposed for tests} *)

module Kqueue : sig
  type t

  val create : int -> t
  val size : t -> int

  val max_cost : t -> float
  (** Cost of the current worst kept item; [infinity] when empty. *)

  val push : t -> float -> int -> unit
  (** Keep the [k] items smallest by [(cost, query index)] — equal-cost
      ties deterministically keep the smaller query index, independent
      of push order. *)

  val contents : t -> (int * float) list
  (** Kept items as (query, cost), ascending by (cost, query index). *)
end

val solution_cost : Suite.t -> solution -> float
(** Recomputes a solution's cost under shared-execution semantics
    (distinct query node costs counted once, plus all edge costs) — the
    objective of §4.1. Exposed for tests; equals [total_cost] for {!smc}
    and {!topk} solutions. *)
