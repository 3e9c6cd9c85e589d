(** The testing framework's view of the DBMS (paper Figure 2, "Query
    Optimizer Extensions"): [RuleSet(q)], [Plan(q, ¬R)], [Cost(q, ¬R)],
    plus an optimizer-invocation counter — the unit of measurement in the
    monotonicity experiment (Figure 14). *)

module SSet = Optimizer.Engine.SSet

type t

val create :
  ?options:Optimizer.Engine.options ->
  ?rules:Optimizer.Rule.t list ->
  Storage.Catalog.t ->
  t
(** [rules] overrides the exploration-rule registry (fault injection). *)

val catalog : t -> Storage.Catalog.t
val rules : t -> Optimizer.Rule.t list

val fingerprints : t -> (string * string) list
(** (name, content fingerprint) of this framework's rule registry, in
    registry order — the content identity incremental maintenance diffs
    against a persisted manifest. *)

val with_matched : (unit -> 'a) -> 'a * string list
(** Re-export of {!Optimizer.Rule.collect_matched}: run a thunk recording
    the sorted names of every rule whose pattern matched some tree — the
    dependency set of whatever the thunk computed. Per-domain; wrap pool
    task bodies, not code that fans out. *)

val ruleset : t -> Relalg.Logical.t -> (SSet.t, string) result
(** [RuleSet(q)]: logical rules exercised while optimizing [q].
    Exploration only — counted as an optimizer invocation. *)

val optimize :
  t -> ?disabled:string list -> Relalg.Logical.t ->
  (Optimizer.Engine.result, string) result
(** [Plan(q, ¬R)] with full costing — counted as an optimizer
    invocation. *)

val cost : t -> ?disabled:string list -> Relalg.Logical.t -> (float, string) result
(** [Cost(q, ¬R)] — optimizer-estimated cost, as used throughout §6. *)

val execute :
  t -> ?disabled:string list -> Relalg.Logical.t ->
  (Executor.Resultset.t, string) result
(** Optimize then run the chosen plan against the catalog. *)

(** {2 Shared exploration}

    Monotonicity-aware service for workloads that cost the same query
    under many disabled sets (the compression cost matrix): one counted
    exploration, then as many cheap [Cost(q, ¬R)] passes as needed. See
    {!Optimizer.Engine.explore_shared} for exactness conditions. *)

type shared = Optimizer.Engine.shared

val explore_shared : t -> Relalg.Logical.t -> (shared, string) result
(** Explore [q] once with all enabled rules, tagging derivations —
    counted as one optimizer invocation. *)

val shared_cost : t -> ?disabled:string list -> shared -> (float, string) result
(** [Cost(q, ¬R)] served from a shared exploration — a filtered
    re-costing pass, {e not} counted as an optimizer invocation (counter
    ["framework.shared_cost_passes"]). [shared_cost ~disabled:[]] equals
    {!cost}[ ~disabled:[]]. *)

val invocations : t -> int
(** Number of optimizer invocations ([ruleset]/[optimize]/[cost]/[execute])
    since creation or the last {!reset_invocations}. It counts logical
    calls, not exploration work: a call the engine serves from its
    cross-call rewrite memo, or with the previous identical call's
    closure, still counts once — as do the engine's
    ["optimizer.rule.fired"] and ["optimizer.explore.trees"] counters
    (see {!Optimizer.Engine}). *)

val reset_invocations : t -> unit

val pattern_of : t -> string -> Dsl.Pattern.t option
(** The exported rule pattern for a rule name, obtained through the XML
    export/import round trip — i.e. what a test tool outside the server
    would receive (§3.1). *)
