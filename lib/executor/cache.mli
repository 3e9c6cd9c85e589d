(** Per-domain execution-result cache keyed by
    {!Optimizer.Physical.fingerprint}.

    Correctness validation executes many rule-off variants that compile
    to plans already executed (different targets converging on the same
    winner), and delta reduction re-executes near-identical candidate
    plans hundreds of times; a hit skips compilation and execution
    entirely and returns the previously materialized result.

    The same store memoizes subplans: below the root, every operator but
    a table scan first looks up its row array, keyed by the subplan
    (fingerprint plus structural equality), and stores it when it ran
    without error. [Plan(q)] and [Plan(q,¬r)] differ only where [r]
    fired, and a reduction candidate differs from its parent by one
    edit, so most subtrees repeat. A subplan that raises is never
    stored and raises again on every run. Stored arrays are shared with
    later consumers; that is sound because no operator mutates the rows
    it is handed.

    The store lives in [Domain.DLS], so it is domain-safe without locks
    and hit/miss patterns can differ across [--jobs] settings — callers
    must therefore report *logical* execution counts (incremented on hit
    or miss alike) to keep output byte-identical across job counts. The
    subplan memo changes no logical execution count: it only skips work
    that the labelled [exec.rows]/[exec.operators] counters count, so
    those read lower when it hits. The cache resets automatically when
    called with a different catalog (physical identity), and starts
    over when its estimated size would pass {!max_bytes}. *)

val run :
  ?site:string ->
  Storage.Catalog.t -> Optimizer.Physical.t -> (Resultset.t, string) result
(** {!Exec.run} with memoization. Cached [Ok] results are pre-normalized
    (see {!Resultset.normalized}) on the executing domain, so sharing
    them read-only across domains is safe. Records
    [executor.result_cache.hits]/[.misses] when metrics are enabled —
    both the unlabeled totals and a per-[site] labeled pair attributing
    the traffic to its caller ([validate], [triage-oracle], [replay],
    [stats]; default [adhoc]). These count whole plans only; subplan
    lookups record [executor.subplan_memo.hits]/[.misses], a store that
    starts over [executor.subplan_memo.resets], and the gauge
    [executor.subplan_memo.bytes] holds the store's estimated size. *)

val set_disk : (Storage.Diskcache.t * string) option -> unit
(** Attach (or detach) the shared disk tier: memory misses consult the
    {!Storage.Diskcache} under namespace ["results"], keyed by the given
    catalog key (callers derive it from {!Storage.Catalog.content_hash})
    plus the plan fingerprint; computed results are written back
    (atomic, versioned). Entries carry the full plan and are served only
    on structural {!Optimizer.Physical.equal}, so collisions degrade to
    misses. Configure once at startup, before spawning worker domains.
    Records [executor.result_cache.disk_hits]/[.disk_misses]/
    [.disk_stores]. *)

val max_bytes : int
(** The bound on the store's estimated size: rows times their arity,
    plus per-row overhead, summed over every stored plan and subplan.
    A store that would pass it starts over. *)

val clear : unit -> unit
(** Drop the calling domain's cache, whole plans and subplans (test
    isolation, fresh measurements). The disk tier, when configured, is
    unaffected. *)
