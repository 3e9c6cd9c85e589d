(** Physical operator trees — the output of implementation rules, and the
    executor's input. *)

type t =
  | TableScan of { table : string; alias : string }
  | FilterOp of { pred : Relalg.Scalar.t; child : t }
  | ComputeScalar of { cols : (Relalg.Ident.t * Relalg.Scalar.t) list; child : t }
  | NestedLoopsJoin of {
      kind : Relalg.Logical.join_kind;
      pred : Relalg.Scalar.t;
      left : t;
      right : t;
    }
  | HashJoin of {
      kind : Relalg.Logical.join_kind;
      left_keys : Relalg.Ident.t list;
      right_keys : Relalg.Ident.t list;
      residual : Relalg.Scalar.t;
      left : t;
      right : t;
    }  (** equi-join on positionally paired keys; NULL keys never match *)
  | MergeJoin of {
      left_keys : Relalg.Ident.t list;
      right_keys : Relalg.Ident.t list;
      residual : Relalg.Scalar.t;
      left : t;
      right : t;
    }  (** inner only; children must deliver key order *)
  | HashAggregate of {
      keys : Relalg.Ident.t list;
      aggs : (Relalg.Ident.t * Relalg.Aggregate.t) list;
      child : t;
    }
  | StreamAggregate of {
      keys : Relalg.Ident.t list;
      aggs : (Relalg.Ident.t * Relalg.Aggregate.t) list;
      child : t;
    }  (** child must deliver key order *)
  | SortOp of { keys : (Relalg.Ident.t * Relalg.Logical.sort_dir) list; child : t }
  | Concat of t * t
  | HashUnion of t * t
  | HashIntersect of t * t
  | HashExcept of t * t
  | HashDistinct of t
  | LimitOp of { count : int; child : t }

val children : t -> t list
val size : t -> int
val op_name : t -> string
(** Operator kind, without the join kind ("HashJoin", "Filter", ...):
    the [op] label of the executor's per-operator metrics. Printed plans
    ({!pp}) name joins by kind instead ("HashLeftOuterJoin"). *)

val equal : t -> t -> bool

val fingerprint : t -> int
(** Full-depth structural hash — the plan analogue of
    {!Relalg.Logical.hash}. Consistent with {!equal}; non-negative.
    Folds in every constructor tag and payload (scalars, identifiers,
    aggregates, join kinds, sort directions), so plans differing only
    deep inside an expression hash apart. Keys the executor's
    result cache. *)

(** Hashtable keyed by plans: {!equal} equality, {!fingerprint} hash. *)
module Tbl : Hashtbl.S with type key = t
val pp : Format.formatter -> t -> unit
val to_string : t -> string
