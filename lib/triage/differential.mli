(** Differential execution oracle over a {e pair} of logical trees.

    The triage {!Oracle} compares [Plan(q)] against [Plan(q, ¬R)] — one
    query, two rule sets. Discovery needs the transposed check: two
    trees claimed equivalent, executed under a fixed (here: empty) rule
    set. Both sides are planned without exploration, executed through
    {!Executor.Cache}, and bag-compared; a divergence is classified with
    {!Divergence} exactly like a validation bug, so discovered
    counterexamples flow into the same corpus/replay machinery. *)

val check :
  ?site:string ->
  ?budget:int ->
  Storage.Catalog.t ->
  Relalg.Logical.t ->
  Relalg.Logical.t ->
  (Divergence.t option, string) result
(** [check cat lhs rhs] plans both trees with exploration disabled
    ([budget], default 1, bounds [max_trees]; no rewrite rules run, so
    what executes is the tree itself), executes them via
    {!Executor.Cache.run} under [site] (default ["differential"]) and
    compares. [Ok None] = bag-equal; [Ok (Some d)] = diverges (an
    execution error on the rhs is a divergence of kind [Exec_error],
    mirroring {!Oracle}); [Error] = the check itself could not run
    (ill-formed tree, incomparable schemas, lhs execution failure).
    The rhs is first aligned to the lhs's output schema with
    {!Optimizer.Rule.align} — the alignment a discovered rule's
    [Rdsl.Align] rhs applies, so the oracle accepts exactly the
    candidates discovery can promote.
    Counts [triage.differential.checks]/[.executions] — executions are
    logical (cache hits included), so totals match across job counts. *)
