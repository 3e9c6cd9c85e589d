(** Incremental maintenance of the generate→compress pipeline.

    A session wraps one pipeline run against a cache directory: {!start}
    loads the manifest a previous run persisted for the same
    configuration and diffs the live rule registry's content
    fingerprints against it; {!generate} replays the suite targets the
    diff proves unaffected; {!warm_edges} re-indexes the surviving
    edge-cost matrix cells for injection into
    {!Compress.edge_costs}[ ?warm_edges]; {!note_matrix} folds the
    solved service back in; {!finish} persists the next manifest.

    Staleness semantics: a body-only edit (same name and pattern, new
    fingerprint) or a removal invalidates exactly the slices whose
    recorded dependency sets contain the rule — for matrix cells,
    excepting the rules the cell's own target disables, whose bodies the
    cell's cost never consults. A pattern change or an added rule can
    match trees the recorded artifacts never explored, so either forces
    a full rebuild. Reused slices are byte-identical to what a cold
    rebuild would produce, at any pool size — reused targets still
    consume their PRNG substream slot and warm cells still count into
    invocation accounting. *)

type t

val rules_info : Framework.t -> Storage.Manifest.rule_info list
(** The live registry as manifest rule records: name, content
    fingerprint and pattern fingerprint, in registry order. *)

val config_key : Framework.t -> desc:string -> string
(** Manifest key for a pipeline configuration: digest of the catalog
    contents and [desc], which must encode every generation/compression
    parameter that shapes the artifacts (seed, rule count, pairs flag,
    [k], [extra_ops], generation method, exploration sharing). Runs with
    different configurations never see each other's manifests. *)

val start : dc:Storage.Diskcache.t -> desc:string -> Framework.t -> t
(** Load and diff the manifest for this configuration, decoding its
    suite and matrix sections once for the whole session. No manifest
    (or a corrupt one) yields a session that rebuilds everything cold
    and writes a fresh manifest on {!finish}. *)

val changes : t -> (string * Storage.Manifest.change) list
(** The classified rule diff, sorted by name; empty on a cold start. *)

val cold : t -> bool
(** No prior manifest was found for this configuration. *)

val generate :
  ?extra_ops:int ->
  ?max_trials:int ->
  pool:Par.Pool.t ->
  t ->
  Storage.Prng.t ->
  targets:Suite.target list ->
  k:int ->
  Suite.t
(** {!Suite.generate_tracked} with this session's reuse callback: a
    stored target is replayed when it sits at the same index and no
    changed rule appears in its recorded dependency set. Must be called
    exactly once, with the same parameters a cold run would use. *)

val warm_edges : t -> ((int * int) * float) list
(** The manifest's surviving matrix cells, re-indexed to the generated
    suite (queries matched by content, targets by name) — pass to
    {!Compress.edge_costs}[ ?warm_edges]. Empty on a full rebuild.
    Requires {!generate}. *)

val note_matrix : t -> Compress.edge_costs -> unit
(** Record the solved service: its {!Compress.snapshot} becomes the next
    manifest's cell set, and its computed column deps are unioned with
    the deps carried over for columns served entirely warm. Call after
    the last algorithm ran on the (shared) service. Requires
    {!generate}. *)

val finish : t -> bool
(** Persist the next manifest (rules + suite records + matrix). Returns
    false if the write failed. Requires {!generate}. *)

type report = {
  manifest_found : bool;
  rules_total : int;
  rules_changed : (string * string) list;  (** (name, change kind) *)
  full_rebuild : bool;
  targets_reusable : int;
  targets_total : int;
  entries_reused : int;
  edges_reusable : int;
  edges_total : int;
  edges_recomputed : int;
}

val preview : t -> report
(** What the manifest alone proves reusable, without running anything —
    the [qtr delta] report. Target/edge tallies count stored artifacts
    whose dependency sets avoid every changed rule, by the same target
    and cell rules {!generate} and {!warm_edges} apply; a cell's disabled
    set is read from its stored target name. *)

val result : t -> report
(** The actual reuse tallies after a run: targets/entries served by the
    reuse callback, edges served warm versus recomputed. *)
