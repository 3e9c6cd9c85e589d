(** Columnar batch compilation — the executor's engine behind
    {!Exec.run}.

    Scalars compile to {!kernel}s evaluating a whole batch of rows into
    a [Value.t array] column at a time (one tight loop per expression
    node instead of a closure call per row per node), with an unboxed
    [float array] path for arithmetic subtrees over NULL-free float
    columns. Every expression compiles once, here: a predicate operator
    keeps the rows whose kernel column is [TRUE]. Plans compile to a
    tree of row generators ({!t}). Each operator runs its expressions
    as one batch over its whole input: a filter, a projection, a join
    residual over every candidate pair ({!Relops.filter_matches}), an
    aggregate argument per group; a nested-loops join runs one batch
    per left row. Everything relational is {!Relops}, shared with the
    interpreter.

    Observable behaviour matches {!Eval} exactly — values, three-valued
    logic, and errors: kernels track a per-row first-error slot,
    [AND]/[OR] only evaluate their right side over the
    non-short-circuited selection, and materialization raises the lowest
    erroring row's exception, which is what a sequential row scan would
    have raised. The QCheck differential suite holds the two paths to
    value *and* error-message agreement. *)

open Storage

exception Compile_error of string
(** Static plan error: unknown table or column, set-operation arity
    mismatch. Raised while compiling ({!scalar}, {!plan}), never while
    rows are produced. *)

type ctx
(** Evaluation context for one batch: the rows plus per-row error slots
    shared by all expressions of one operator. *)

type kernel = ctx -> int array -> Value.t array
(** [kernel ctx sel] fills its output column at the selected row
    indices (ascending); rows outside [sel] or already erroring hold
    unspecified values. Errors are recorded, not raised. *)

val scalar : Relalg.Ident.t array -> Relalg.Scalar.t -> kernel
(** Compile an expression against a row layout. Raises
    {!Compile_error} on unknown columns, at compile time. *)

val eval_column : kernel -> Value.t array array -> Value.t array
(** Evaluate over one whole batch and materialize: the column, or the
    lowest erroring row's exception. *)

type t = { cols : Relalg.Ident.t array; gen : unit -> Value.t array array }
(** A compiled plan: output columns plus a generator that executes the
    operator tree. Reusable — each call of [gen] runs the plan afresh,
    raising {!Relops.Exec_error} or [Invalid_argument] only for
    value-dependent failures. *)

type memo =
  Optimizer.Physical.t -> (unit -> Value.t array array) -> Value.t array array
(** A subplan lookup: [memo p run] returns the rows of subplan [p],
    either stored ones or those of [run ()]. It must return what
    [run ()] would, and let [run]'s exceptions through. *)

val plan : ?memo:memo -> Storage.Catalog.t -> Optimizer.Physical.t -> t
(** Compile a plan to batch kernels, reporting every static error
    (unknown table or column, set-operation arity mismatch) as
    {!Compile_error} before any row is produced. Each operator runs in
    an [exec.batch.<op>] trace span and feeds the
    [exec.rows]/[exec.operators] counters, labelled by
    {!Optimizer.Physical.op_name}. With [memo], every operator below
    the root except a table scan gets its rows through it; an operator
    served stored rows runs nothing below it, so it and its subtree
    count no [exec.rows]. Rows handed out are never mutated by any
    operator, which is what makes serving them twice safe. *)
