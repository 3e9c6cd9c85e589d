(** Deliberately broken transformation rules, for demonstrating and
    testing the correctness-validation pipeline: with a fault injected,
    comparing [Plan(q)] against [Plan(q, ¬{r})] must surface a result
    mismatch (a "correctness bug", §2.3). Each fault is its victim's
    [Rdsl] term with one change, keeping the victim's registry name,
    exactly like a buggy implementation shipped under the real rule's
    identity. *)

val names : string list
(** Names of rules for which a buggy variant exists. *)

val term : string -> Dsl.Rdsl.rule
(** The buggy variant's DSL term, for the symbolic oracle. Raises
    [Invalid_argument] for unknown names. *)

val inject : string -> Optimizer.Rule.t list
(** [inject victim] is {!Optimizer.Rules.all} with [victim] replaced by
    its compiled buggy term. Raises [Invalid_argument] for unknown
    names. *)

val describe : string -> string
(** What the injected bug does wrong. *)
