(** Physical plan execution over the in-memory catalog.

    Faithful SQL semantics where it matters for rule-correctness testing:
    three-valued predicate logic, NULL-key behaviour of hash and merge
    joins, outer-join padding, NULL-skipping aggregates, a fabricated row
    for global aggregation over empty input, and null-safe set
    operations.

    Two paths share one relational core ({!Relops}) and differ only in
    their one expression evaluator: {!run} compiles the plan once into
    columnar batch kernels ({!Batch}), each operator evaluating its
    expressions as one batch; {!run_interpreted} walks expression ASTs
    per row ({!Eval}) — the simple oracle the batch path is
    differentially tested and benchmarked against. *)

val run :
  ?memo:Batch.memo ->
  Storage.Catalog.t ->
  Optimizer.Physical.t ->
  (Resultset.t, string) result
(** Compile then execute, bottom-up and materializing, via the columnar
    batch path ({!Batch}); [memo] serves subplans ({!Batch.plan}), and
    only {!Cache.run} passes one. Fails (rather than raising) on unknown
    tables/columns, arity mismatches — reported at compile time, before
    any row is produced — and on row-time type errors. When metrics are
    enabled, records
    [executor.compile_ns], [executor.exec_ns], [executor.rows], and
    [executor.rows_per_sec]. *)

val run_interpreted :
  Storage.Catalog.t -> Optimizer.Physical.t -> (Resultset.t, string) result
(** Row-at-a-time interpreter (hashtable column lookups, per-row AST
    walks). Same observable results as {!run}, except that unknown
    columns only fail when a row actually evaluates them. *)

val run_logical :
  ?options:Optimizer.Engine.options ->
  Storage.Catalog.t ->
  Relalg.Logical.t ->
  (Resultset.t, string) result
(** Convenience: optimize then execute. *)
