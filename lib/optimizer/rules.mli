(** The rule registry: all exploration (logical) transformation rules in a
    canonical order, plus the pattern-export API the paper adds to the
    DBMS (§3.1: "we have extended the database server with an API through
    which it returns the rule pattern tree for a rule in a XML format"). *)

val all : Rule.t list
(** All exploration rules; the order is stable and experiments index rules
    by position in this list. *)

val names : string list
val count : int
val find : string -> Rule.t option
val find_exn : string -> Rule.t

val nth : int -> Rule.t
(** Raises [Invalid_argument] when out of range. *)

val pattern_xml : string -> string option
(** The XML rule-pattern export for a rule name. *)

val all_patterns_xml : unit -> string
(** One [<rules>...</rules>] document with every rule's pattern. *)

val fingerprints : unit -> (string * string) list
(** (name, content fingerprint) for every registered rule, in registry
    order: the digest of the rule's full [Rdsl] term
    ({!Dsl.Rdsl.fingerprint}). Any edit to a rule's definition yields a
    new fingerprint — the identity incremental maintenance and the
    warm-start matrix key are built on. *)

val simulate_edit : ?rules:Rule.t list -> string -> Rule.t list
(** [simulate_edit name] is the registry (default {!all}) with the named
    rule rebuilt under a fingerprint derived from its old one: same name,
    same pattern, same behavior, new content fingerprint — a behavior-preserving
    refactor of the rule's body, reproducible for warm-edit benchmarks,
    CI, and incremental-maintenance tests. The maintenance layer must
    recompute everything depending on the rule, and the recomputed
    results must equal the pre-edit ones byte for byte. Raises
    [Invalid_argument] for an unknown name. *)

val dsl_rules : (string * Dsl.Rdsl.rule) list
(** The DSL source of every registered rule, keyed by rule name, in
    registry order. *)

val rdsl_of : string -> Dsl.Rdsl.rule option
(** The DSL source of the named registered rule; [None] for an unknown
    name. *)
