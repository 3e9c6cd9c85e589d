(** The executor's relational core, shared by the batch path
    ({!Exec.run}, {!Batch} kernels) and the interpreter
    ({!Exec.run_interpreted}, {!Eval}): hash tables over rows, join
    matching and finalization, grouping, aggregate folds, distinct, and
    sort comparators.

    Everything here is parameterized by already-resolved column *indices*
    and expression *evaluators* — a row predicate, a batch [keep]
    function, a column evaluator — so the two paths differ only in how
    they evaluate expressions, never in relational semantics. *)

open Storage

exception Exec_error of string
(** Row-time execution failure (e.g. AVG over a non-numeric value, or —
    interpreter only — an unknown column reached while evaluating a
    row). *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [Printf]-style; raises {!Exec_error}. *)

module RowTbl : Hashtbl.S with type key = Value.t array
(** Hashtable keyed by whole rows ({!Resultset.compare_rows} equality). *)

val filter_rows : (Value.t array -> bool) -> Value.t array array -> Value.t array array
val take_rows : int -> Value.t array array -> Value.t array array

val make_agg :
  (Relalg.Scalar.t -> Value.t array array -> Value.t array) ->
  Relalg.Aggregate.t ->
  Value.t array array ->
  Value.t
(** [make_agg column agg] resolves the aggregate's argument to a column
    evaluator once, via [column], and returns the evaluator for one
    group's rows: the argument column is materialized, raising whatever
    [column] raises, then folded. NULLs are skipped by every aggregate
    except COUNT( * ); SUM/MIN/MAX/AVG of an all-NULL (or empty) group is
    NULL. SUM folds mono-typed int and float columns unboxed, with the
    same operations in the same order as the generic fold. *)

val hash_groups :
  int array ->
  Value.t array array ->
  (Value.t array * Value.t array array) array
(** Groups in first-appearance order of the keys; members keep input
    order. *)

val stream_groups :
  int array ->
  Value.t array array ->
  (Value.t array * Value.t array array) array
(** Consecutive runs of equal keys (input must be sorted by the keys). *)

val grouped_rows :
  (Value.t array array -> Value.t) array ->
  (Value.t array * Value.t array array) array ->
  Value.t array array
(** One output row per group: key values then aggregate values. *)

val join_cols :
  Relalg.Logical.join_kind ->
  Relalg.Ident.t array ->
  Relalg.Ident.t array ->
  Relalg.Ident.t array
(** Output columns: left only for (anti)semi joins, left @ right
    otherwise. *)

val join_rows :
  Relalg.Logical.join_kind ->
  left_arity:int ->
  right_arity:int ->
  Value.t array array ->
  Value.t array array ->
  int list array ->
  Value.t array array
(** Join finalization from per-left-row match lists ([match_lists.(li)]
    holds the indices of right rows fully matching left row [li]):
    combination, outer-join NULL padding, (anti)semi projection. *)

val keep_where : (Value.t array -> bool) -> Value.t array array -> int array
(** Ascending indices of the rows satisfying the predicate, tested in
    input order — a row predicate as a [keep] function for the match
    functions below. *)

val nested_loops_matches :
  (Value.t array array -> int array) ->
  Value.t array array ->
  Value.t array array ->
  int list array
(** [nested_loops_matches keep larr rarr]: one [keep] batch per left row,
    that row combined with every right row; [keep] returns the ascending
    indices of the combined rows whose predicate is TRUE. *)

val hash_matches :
  lidx:int array ->
  ridx:int array ->
  Value.t array array ->
  Value.t array array ->
  int list array
(** Equi-join candidates by hashing the right side: per left row, the
    right rows with an equal key, in right-input order. NULL keys never
    match. *)

val merge_matches :
  lidx:int array ->
  ridx:int array ->
  Value.t array array ->
  Value.t array array ->
  int list array
(** Inner merge-join candidates over key-sorted inputs, in right-input
    order; NULL keys are skipped. *)

val filter_matches :
  (Value.t array array -> int array) ->
  Value.t array array ->
  Value.t array array ->
  int list array ->
  int list array
(** [filter_matches keep larr rarr candidates] applies a join residual:
    one [keep] batch holding every candidate pair, combined — left rows
    in order, each row's candidates in right order, the order a per-pair
    loop would test them. A [keep] that raises at its lowest erroring
    row therefore raises the pair such a loop would have died on.
    Returns the kept candidates per left row, order preserved. *)

val distinct_rows : Value.t array array -> Value.t array array
(** First occurrence of each row, input order preserved. *)

val row_set : Value.t array array -> unit RowTbl.t

val sort_compare :
  int array ->
  Relalg.Logical.sort_dir array ->
  Value.t array ->
  Value.t array ->
  int
(** Multi-key comparator honouring per-key direction
    ({!Storage.Value.compare_total} per column). *)
