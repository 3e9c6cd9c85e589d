(** Benchmark regression gate.

    Compares two bench result documents ([BENCH_results.json]) metric by
    metric against per-metric thresholds and classifies each as passed,
    regressed, or improved. Pure JSON-in/findings-out so the gate is
    unit-testable; [qtr bench-diff] is a thin CLI around
    {!compare_results} and exits nonzero when {!regressions} is
    non-empty.

    Metrics are addressed by [/]-separated paths into the document;
    a segment may carry a selector, ["runs[jobs=4]"], which picks from a
    JSON list the object whose member equals the given value. Booleans
    read as 1/0 so correctness flags share the float pipeline. *)

type direction = Higher_is_better | Lower_is_better

type kind =
  | Ratio  (** speedups, hit rates — unitless, machine-portable-ish *)
  | Seconds  (** wall clocks — noisiest, scaled hardest by [slack] *)
  | Flag  (** correctness booleans — zero tolerance, slack-immune *)
  | Count  (** cardinalities (reproducer counts, …) *)

type spec = { path : string; dir : direction; kind : kind; threshold : float }
(** [threshold] is the allowed change in the bad direction, relative to
    [|old|] (0.25 = 25%); {!Flag} ignores it. *)

type status =
  | Passed
  | Regressed
  | Improved
  | Missing_old  (** metric only in the new document (new metric) — ok *)
  | Missing_new  (** metric vanished from the new document — a regression *)

type finding = {
  spec : spec;
  old_v : float option;
  new_v : float option;
  change_pct : float;
  status : status;
}

val default_specs : spec list
(** The gate run in CI: the paper's Figure 8/11-14 shape flags,
    engine/executor speedups, determinism, agreement and
    profiler-overhead flags, triage quality, per-experiment wall
    clocks. Every path must resolve in the checked-in
    [bench/BASELINE.json] (a test checks this). *)

val lookup : Json.t -> string -> float option
(** Resolve a metric path ([Int]/[Float]/[Bool] leaf) to a float. *)

val compare_results :
  ?specs:spec list -> ?slack:float -> old_doc:Json.t -> new_doc:Json.t -> unit ->
  finding list
(** [slack] multiplies every non-{!Flag} threshold — CI compares runs
    from different machines with e.g. [~slack:10.0], which keeps the
    flags strict while only catastrophic numeric changes fire. Metrics
    absent from both documents produce no finding. *)

val regressions : finding list -> finding list
(** The findings that should fail a gate ({!Regressed} and
    {!Missing_new}). *)

val finding_json : finding -> Json.t
val findings_json : finding list -> Json.t
val pp_finding : Format.formatter -> finding -> unit
