(** Derived logical properties: output schema, candidate keys, validity.

    Transformation-rule preconditions (group-by pull-up/push-down,
    outer-join simplification, distinct elimination, ...) are expressed in
    terms of these properties — the paper's point that a rule's pattern is
    a necessary but not sufficient firing condition (§3.1). *)

type col_info = {
  id : Ident.t;
  ty : Storage.Datatype.t;
  nullable : bool;
}

(** {2 The property memo}

    Properties are memoized per {!Hashcons.node}, keyed by its id, in
    one domain-local table; each node's entry is derived from its kids'
    entries, one operator at a time. The table serves one catalog at a
    time (compared physically) and is flushed when another shows up. *)

val clear : unit -> unit
(** Drop the calling domain's property memo. {!Hashcons.clear} does it
    too. The memo flushes itself when the catalog changes; [clear] is
    for long-lived processes (benchmarks, tests) that want to release it
    between phases. *)

val memo_entries : unit -> int
(** Nodes with a memoized entry, in the calling domain's table. *)

(** Properties of interned trees: the hot path of rule side-conditions
    and the planner, read from the memo by node id. *)
module Node : sig
  val schema : Storage.Catalog.t -> Hashcons.node -> (col_info list, string) result
  val output_idents : Storage.Catalog.t -> Hashcons.node -> Ident.Set.t
  val keys : Storage.Catalog.t -> Hashcons.node -> Ident.Set.t list
  val has_key_within : Storage.Catalog.t -> Hashcons.node -> Ident.Set.t -> bool
  val validate : Storage.Catalog.t -> Hashcons.node -> (unit, string) result
end

(** {2 Properties of trees}

    Each interns the tree, then reads the memo through {!Node}. *)

val schema :
  Storage.Catalog.t -> Logical.t -> (col_info list, string) result
(** Output columns of a tree, in order. Fails when the tree is ill-formed
    (unknown table/column, type error, arity mismatch, ...). *)

val schema_exn : Storage.Catalog.t -> Logical.t -> col_info list
val output_idents : Storage.Catalog.t -> Logical.t -> Ident.Set.t
val env_of : col_info list -> Scalar.env

val keys : Storage.Catalog.t -> Logical.t -> Ident.Set.t list
(** Candidate keys of the output (conservative under-approximation). A
    returned [Ident.Set.empty] means the output has at most one row. For an
    ill-formed tree, returns []. *)

val has_key_within : Storage.Catalog.t -> Logical.t -> Ident.Set.t -> bool
(** [has_key_within cat t cols]: some candidate key of [t] is a subset of
    [cols]. *)

val validate : Storage.Catalog.t -> Logical.t -> (unit, string) result
(** Full well-formedness check of every operator in the tree: column
    scoping, expression typing, set-operation compatibility, distinct
    output names, unique relation aliases. *)

val equi_join_columns : Scalar.t -> Ident.Set.t -> Ident.Set.t -> Ident.Set.t * Ident.Set.t
(** [equi_join_columns pred left right] returns the columns of each side
    equated across sides by top-level [Eq] conjuncts of [pred]. *)
