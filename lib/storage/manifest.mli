(** Persisted suite manifest for incremental maintenance.

    Records the content fingerprint of every rule a pipeline run was
    built with, plus named opaque sections (Marshal'd payloads owned by
    the writing layer: per-target generation records, edge-cost matrix
    cells with their per-column rule-dependency sets). The next run diffs
    its live registry against the manifest with {!diff} and recomputes
    only the slices a changed rule can reach; everything here is plain
    data so the storage layer stays free of core/optimizer types.

    Persistence is a {!Diskcache} namespace ("manifest"), so corrupted,
    stale-version or foreign-compiler manifests load as [None] — an
    incremental run falls back to a cold rebuild, never to an error. *)

type rule_info = {
  name : string;
  fingerprint : string;  (** content digest of the whole rule definition *)
  pattern_fp : string;  (** digest of the pattern alone *)
}

type t = {
  config : string;
      (** human-readable summary of the pipeline configuration (seed, k,
          targets, catalog hash) — display only; the cache {e key} is the
          caller's config digest *)
  rules : rule_info list;  (** registry order at save time *)
  sections : (string * string) list;  (** name → opaque Marshal'd payload *)
}

val make : config:string -> rules:rule_info list -> t
val section : t -> string -> string option

val set_section : t -> string -> string -> t
(** Functional update; replaces any existing section of the same name. *)

type change = Body_changed | Pattern_changed | Added | Removed

val change_to_string : change -> string

val diff : t -> rules:rule_info list -> (string * change) list
(** Every rule whose content drifted between the manifest and the live
    registry, classified and sorted by name; unchanged rules are
    omitted. [Body_changed] (same pattern digest) is the reusable case:
    slices whose dependency sets avoid the rule are still valid.
    [Pattern_changed] and [Added] rules can match trees the recorded
    artifacts never explored, so callers must rebuild cold. *)

val ns : string
(** The Diskcache namespace manifests live under. *)

val load : Diskcache.t -> key:string -> t option

val save : Diskcache.t -> key:string -> t -> bool
(** Persist atomically and record [key] in the manifest index
    (most-recently-saved last). [false] on I/O failure. *)

val index : Diskcache.t -> (string * string) list
(** (key, config summary) of every manifest saved into this cache,
    most-recently-saved last — how `qtr stats` finds the latest manifest
    without knowing the pipeline configuration. *)
