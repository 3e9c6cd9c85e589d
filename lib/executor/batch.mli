(** Columnar batch ("morsel") compilation — the executor's engine
    behind {!Exec.run}.

    Scalars compile to {!kernel}s evaluating a whole morsel of rows into
    a [Value.t array] column at a time (one tight loop per expression
    node instead of a closure call per row per node), with a fused
    unboxed [float array] fast path for arithmetic/comparison subtrees
    over all-float columns. Plans compile to a tree of row generators
    ({!t}); filter / projection / join-probe / per-group aggregation are
    scheduled morsel-wise through a {!Par.Pool} with task-order merges,
    so output is byte-identical for every jobs count.

    Observable behaviour matches {!Eval} and {!Compile.scalar} exactly —
    values, three-valued logic, and errors: kernels track a per-row
    first-error slot, [AND]/[OR] only evaluate their right side over the
    non-short-circuited selection, and materialization raises the lowest
    erroring row's exception, which is what a sequential row scan would
    have raised. The QCheck differential suite holds all three paths to
    value *and* error-message agreement. *)

open Storage

type ctx
(** Evaluation context for one morsel: the rows plus per-row error
    slots shared by all expressions of one operator. *)

val make_ctx : Value.t array array -> ctx

type kernel = ctx -> int array -> Value.t array
(** [kernel ctx sel] fills its output column at the selected row
    indices (ascending); rows outside [sel] or already erroring hold
    unspecified values. Errors are recorded, not raised. *)

val scalar : Relalg.Ident.t array -> Relalg.Scalar.t -> kernel
(** Compile an expression against a row layout. Raises
    {!Compile.Compile_error} on unknown columns, at compile time. *)

val eval_column : kernel -> Value.t array array -> Value.t array
(** Evaluate over one whole morsel and materialize: the column, or the
    lowest erroring row's exception. *)

val full_sel : int -> int array

val check : ctx -> unit
(** Raise the lowest erroring row's recorded exception, if any. *)

val make_agg : Relalg.Ident.t array -> Relalg.Aggregate.t ->
  Value.t array array -> Value.t
(** Batch aggregate over one group's member rows; SUM/AVG fold unboxed
    accumulators over mono-typed numeric columns. Agrees with
    {!Relops.make_agg} on values and errors. *)

val default_morsel_rows : int
(** 1024 — small enough to stay cache-resident, large enough to
    amortize per-morsel setup. *)

type t = { cols : Relalg.Ident.t array; gen : unit -> Value.t array array }
(** A compiled plan: output columns plus a generator that executes the
    operator tree. Reusable — each call of [gen] runs the plan afresh,
    raising {!Relops.Exec_error} or [Invalid_argument] only for
    value-dependent failures. *)

val plan :
  ?pool:Par.Pool.t ->
  ?morsel_rows:int ->
  Storage.Catalog.t ->
  Optimizer.Physical.t ->
  t
(** Compile a plan to morsel-scheduled batch kernels, reporting every
    static error (unknown table or column, set-operation arity
    mismatch) as {!Compile.Compile_error} before any row is produced.
    Each operator feeds the [exec.rows]/[exec.operators] counters,
    labelled by {!Optimizer.Physical.op_name}. [pool] defaults
    to {!Par.Pool.sequential} — executor-level parallelism must be opted
    into, because campaign layers already parallelize across queries and
    nesting domain pools oversubscribes. Results and errors are
    identical for every [pool] size and every [morsel_rows] ≥ 1. *)
