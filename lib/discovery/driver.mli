(** The discovery pipeline: enumerate → validate → rank → promote.

    One [run] mines candidate rewrites over the catalog
    ({!Template.enumerate}), refutes the unsound ones differentially
    ({!Validate.run}) — persisting minimized counterexamples into a
    discovery corpus — then ranks the survivors by how much they would
    matter as optimizer rules and promotes the top-K through the
    framework's own §3–§5 pipeline (suite generation → SMC compression →
    correctness validation). A promoted candidate that surfaces bugs in
    that final gauntlet is demoted again: the framework tests the rules
    it discovers.

    Determinism: the report is byte-identical for any [pool] size (seeded
    PRNG substreams, task-order merges, no wall times or hashcons ids in
    the report). With [disk], the ranking phase warm-starts from the
    spilled edge-cost matrix: scores are unchanged but
    [scoring_optimizer_runs] drops to 0. *)

type config = {
  alphabet : Template.alphabet;
  max_nodes : int;  (** per-side operator budget for enumeration *)
  params : Validate.params;
  suite_k : int;  (** queries per target in the ranking/promotion suites *)
  top_k : int;  (** candidates promoted into optimizer rules *)
  max_saved : int;
      (** non-seeded counterexamples persisted per run (seeded-unsound
          refutations are always persisted) *)
  rank_budget : int;
      (** exploration budget ([max_trees]) for the ranking/promotion
          frameworks, whose registries carry every survivor *)
  corpus_dir : string option;
      (** where minimized counterexamples are saved; [None] skips the
          minimize-and-save stage *)
  catalog : Triage.Corpus.catalog_spec;
}

val default_config : config
(** [Setops]/2 over tpch 0.002, six trials, [suite_k = 2], [top_k = 5],
    [max_saved = 4], no corpus directory. *)

type scored = {
  rule_name : string;
  display : string;
  saving : float;
      (** Σ max(0, Cost(q, ¬R) − Cost(q)) over the target's suite queries
          — the plan-cost regression when the candidate is disabled *)
  fired : int;
      (** exploration firing-count delta over suite generation
          ([optimizer.rule.fired] counters) *)
  shrink : int;  (** lhs minus rhs operator count of the template *)
  clean_instances : int;  (** from validation *)
  rediscovered : string option;  (** known-sound rule this candidate equals *)
  score : float;
}

type saved_case = {
  case_id : string;
  case_rule : string;
  case_display : string;
  kind : string;  (** divergence kind *)
  seeded : string option;  (** seeded-unsound name when applicable *)
  nodes_before : int;  (** lhs+rhs instance nodes before minimization *)
  nodes_after : int;
  path : string option;  (** metadata path, when persisted *)
}

type promotion = {
  attempted : string list;  (** top-K rule names, rank order *)
  promoted : string list;  (** attempted minus demoted *)
  demoted : (string * int) list;  (** rule name, bugs surfaced *)
  pairs_checked : int;
  plan_executions : int;
  promo_suite_queries : int;
}

type report = {
  alphabet : string;
  max_nodes : int;
  raw_candidates : int;  (** pairs generated before dedup *)
  candidates : int;  (** after normal-form dedup — the validated set *)
  survived : int;
  refuted : int;
  inconclusive : int;
  checks : int;  (** differential checks spent validating *)
  rediscovered : (string * string) list;
      (** (candidate rule name, known-sound rule name) for survivors *)
  seeded_refuted : string list;
  seeded_survived : string list;  (** must be empty; CI asserts it *)
  saved : saved_case list;
  ranked : scored list;  (** every survivor, best first *)
  promotion : promotion;
  suite_queries : int;  (** distinct queries in the ranking suite *)
  scoring_optimizer_runs : int;
      (** full optimizer invocations spent filling the ranking cost
          matrix — 0 on a warm [disk] cache *)
}

val run :
  ?pool:Par.Pool.t -> ?disk:Storage.Diskcache.t -> config -> report

val report_json : report -> Obs.Json.t
(** Jobs-invariant by construction: every field above is identical for
    any pool size. *)

val pp_report : Format.formatter -> report -> unit
