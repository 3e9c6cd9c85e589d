(** Row-layout resolution for the batch planner ({!Batch}): column
    references become array offsets when the plan is compiled, so
    anything knowable from the row layout alone — unknown columns — is
    reported before a single row is produced. *)

exception Compile_error of string
(** Static plan error: unknown table/column, set-operation arity
    mismatch. Raised while compiling (by {!column_index},
    {!key_indices}, {!Batch.scalar} and {!Batch.plan}) — never while
    rows are produced. *)

val column_index : Relalg.Ident.t array -> Relalg.Ident.t -> int
(** Offset of a column in a row layout. Raises {!Compile_error} on
    unknown columns. *)

val key_indices : Relalg.Ident.t array -> Relalg.Ident.t list -> int array
