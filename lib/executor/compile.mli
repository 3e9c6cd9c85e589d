(** Row-layout scalar compilation, shared by the batch planner
    ({!Batch}).

    Resolves every column reference to an array offset and every scalar
    operator to a closure, so evaluating a compiled expression over a row
    does zero hashtable lookups and zero AST dispatch. Anything knowable
    from the row layout alone — unknown columns — is reported here, when
    the plan is compiled, before a single row is produced; only
    value-dependent failures (type errors) remain row-time. *)

exception Compile_error of string
(** Static plan error: unknown table/column, set-operation arity
    mismatch. Raised while compiling (by {!scalar}, {!pred},
    {!column_index}, {!key_indices} and {!Batch.plan}) — never from the
    returned closures. *)

val scalar :
  Relalg.Ident.t array ->
  Relalg.Scalar.t ->
  Storage.Value.t array ->
  Storage.Value.t
(** [scalar cols e] compiles [e] against the row layout [cols]. The
    returned closure agrees with {!Eval.scalar} on every row (same
    three-valued logic, same [Invalid_argument] on type errors). *)

val pred :
  Relalg.Ident.t array -> Relalg.Scalar.t -> Storage.Value.t array -> bool
(** Compiled {!Eval.pred_true}: [true] iff exactly [Bool true]. *)

val column_index : Relalg.Ident.t array -> Relalg.Ident.t -> int
(** Offset of a column in a row layout. Raises {!Compile_error} on
    unknown columns. *)

val key_indices : Relalg.Ident.t array -> Relalg.Ident.t list -> int array
