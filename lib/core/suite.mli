(** Test-suite generation (§2.3): for each target (a singleton rule or a
    rule pair), [k] distinct queries each exercising the target. *)

type target = Single of string | Pair of string * string

val target_name : target -> string
val rules_of : target -> string list
(** The rule names to disable when validating this target. *)

val all_pairs : string list -> target list
(** All nC2 unordered pairs, in lexicographic index order. *)

type entry = {
  query : Relalg.Logical.t;
  ruleset : Framework.SSet.t;  (** RuleSet(query) *)
  cost : float;  (** Cost(query), all rules enabled *)
}

type t = {
  k : int;
  targets : target list;
  entries : entry array;  (** distinct queries of the overall suite TS *)
  per_target : (target * int list) list;
      (** the k entry indices generated for each target (the paper's TS_i);
          an index can appear under several targets only via deduplication *)
}

val generate :
  ?extra_ops:int ->
  ?max_trials:int ->
  ?pool:Par.Pool.t ->
  Framework.t ->
  Storage.Prng.t ->
  targets:target list ->
  k:int ->
  t
(** Generates TS_i for every target and the deduplicated overall suite,
    by PATTERN generation (§3): {!Query_gen.for_rule} for a singleton,
    {!Query_gen.for_pair} for a pair. Queries whose generation fails within [max_trials] are simply absent —
    a target may end with fewer than [k] queries (reported by
    {!shortfall}). [extra_ops] (default 3) pads queries with random extra
    operators so suite costs vary, as with the paper's complex stochastic
    queries.

    Without [pool], one PRNG stream is threaded through every target in
    order (the historical sequential behavior, byte-stable for a given
    seed). With [pool], each target becomes one task with its own PRNG
    substream (split from [g] in target order) and its own fresh-alias
    range, and results are merged in target order — the suite is
    identical for any [Par.Pool.jobs] count, including 1, but differs
    from the no-pool stream (different, equally valid, random draws). *)

type gen_record = {
  gr_target : target;
  gr_index : int;  (** position in [targets] — fixes the PRNG substream *)
  gr_deps : string list;
      (** sorted names of every rule whose pattern matched during this
          target's generation and acceptance checking: the target's
          dependency set. A rule absent from this list contributed
          nothing, so a body-only edit to it cannot change what this
          target generated. Empty for reused targets whose stored deps
          were served by [reuse] (the callback returns the stored set). *)
  gr_accepted : entry list;  (** task-local accepted entries, pre-merge *)
  gr_reused : bool;  (** served by the [reuse] callback, not regenerated *)
}

val generate_tracked :
  ?extra_ops:int ->
  ?max_trials:int ->
  ?reuse:(int -> target -> (entry list * string list) option) ->
  pool:Par.Pool.t ->
  Framework.t ->
  Storage.Prng.t ->
  targets:target list ->
  k:int ->
  t * gen_record list
(** The pooled generation path of {!generate} with provenance: returns
    the per-target generation records (dependency sets + pre-merge
    accepted entries) a manifest persists, and accepts a [reuse]
    callback serving a target's stored (accepted entries, deps) from a
    prior run. Reused targets skip generation but still consume their
    PRNG substream slot, and the cross-target merge replays in target
    order, so the suite is byte-identical to a full rebuild whenever the
    reused records match what regeneration would produce — which the
    incremental layer guarantees by only reusing targets whose
    dependency sets avoid every changed rule. [generate ~pool] is
    exactly [generate_tracked] without [reuse], minus the records. *)

val covering : t -> target -> int list
(** Entry indices whose RuleSet exercises the target — the bipartite
    graph's edge lists (§4.1). *)

val shortfall : t -> (target * int) list
(** Targets that got fewer than [k] distinct queries, with the deficit. *)
