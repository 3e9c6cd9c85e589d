(* Incremental maintenance of the generate→compress pipeline.

   A session wraps one pipeline run against a cache directory. On start
   it loads the manifest a previous run persisted for the same
   configuration, diffs the live registry's rule-content fingerprints
   against it, and classifies every drift (body-only edit / pattern
   change / added / removed). During the run it serves whatever the diff
   proves unaffected:

   - suite targets whose recorded dependency set (rules whose patterns
     matched during generation) avoids every changed rule are replayed
     from their stored accepted entries instead of regenerated;
   - edge-cost matrix cells whose column dependency set avoids every
     changed rule — except the rules the cell's own target disables,
     which its cost never consults — are injected as warm edges.

   Those two rules are each stated once and also drive [preview], so
   [qtr delta] predicts with the rules the run applies. The manifest's
   suite and matrix sections are decoded once, at start.

   Byte-identity with a cold rebuild is structural, not aspirational:
   reused targets still consume their PRNG substream slot and the
   cross-target merge replays in target order (Suite.generate_tracked),
   and warm cells ride the same warm tier a spilled matrix uses, which
   counts them into the solution's invocation accounting exactly like
   computed edges. A pattern change or an added rule can match trees the
   recorded artifacts never explored, so those force a cold rebuild;
   body edits and removals invalidate only the slices that depend on
   them. No manifest (or a corrupt one) degrades to a cold rebuild that
   writes a fresh manifest. *)

module M = Storage.Manifest
module L = Relalg.Logical

type suite_section = {
  ss_targets : (string * int * string list * Suite.entry list) list;
      (* target name, target index, deps, task-local accepted entries *)
}

type matrix_section = {
  ms_entries : L.t array;  (* the suite's distinct queries, by entry index *)
  ms_columns : (int * string list) list;  (* query index -> column deps *)
  ms_cells : ((string * int) * float) list;  (* (target name, query index) *)
}

type t = {
  dc : Storage.Diskcache.t;
  key : string;
  config : string;
  fw : Framework.t;
  old : M.t option;
  changes : (string * M.change) list;
  full_rebuild : bool;
  changed_rules : string list;  (* body-changed + removed: the reusable diff *)
  stored_suite : suite_section option;  (* both decoded once, by [start] *)
  stored_matrix : matrix_section option;
  mutable suite : Suite.t option;
  mutable reindex : (matrix_section * int L.Tbl.t) option;
      (* the stored matrix and the new suite's entries by content, when
         the diff leaves stored cells reusable; set by [generate] *)
  mutable records : Suite.gen_record list;
  mutable entries_reused : int;
  mutable targets_reused : int;
  mutable columns : (int * string list) list;  (* new indices, post-solve *)
  mutable cells : ((int * int) * float) list;  (* new indices, post-solve *)
  mutable edges_recomputed : int;
  mutable edges_reused : int;
}

let rules_changed_c = Obs.Metrics.counter "delta.rules_changed"
let entries_reused_c = Obs.Metrics.counter "delta.entries_reused"
let edges_recomputed_c = Obs.Metrics.counter "delta.edges_recomputed"

let rules_info fw =
  List.map
    (fun (r : Optimizer.Rule.t) ->
      { M.name = r.name;
        fingerprint = r.fingerprint;
        pattern_fp = r.pattern_fp })
    (Framework.rules fw)

let config_key fw ~desc =
  Printf.sprintf "incr-%s"
    (Digest.to_hex
       (Digest.string
          (Printf.sprintf "%d|%s"
             (Storage.Catalog.content_hash (Framework.catalog fw))
             desc)))

let start ~dc ~desc fw =
  let key = config_key fw ~desc in
  let old = M.load dc ~key in
  let changes =
    match old with Some m -> M.diff m ~rules:(rules_info fw) | None -> []
  in
  let full_rebuild =
    old = None
    || List.exists
         (fun (_, c) -> match c with M.Added | M.Pattern_changed -> true | _ -> false)
         changes
  in
  let changed_rules =
    List.filter_map
      (fun (n, c) ->
        match c with M.Body_changed | M.Removed -> Some n | _ -> None)
      changes
  in
  let section name =
    match Option.bind old (fun m -> M.section m name) with
    | None -> None
    | Some payload -> (
      match Marshal.from_string payload 0 with
      | v -> Some v
      | exception _ -> None)
  in
  if Obs.Metrics.enabled () then
    Obs.Metrics.add rules_changed_c (List.length changes);
  { dc;
    key;
    config = desc;
    fw;
    old;
    changes;
    full_rebuild;
    changed_rules;
    stored_suite = (section "suite" : suite_section option);
    stored_matrix = (section "matrix" : matrix_section option);
    suite = None;
    reindex = None;
    records = [];
    entries_reused = 0;
    targets_reused = 0;
    columns = [];
    cells = [];
    edges_recomputed = 0;
    edges_reused = 0 }

let changes t = t.changes
let cold t = t.full_rebuild && t.old = None

(* The target rule, for the reuse callback and [preview] alike: a stored
   target stands when no changed rule appears in its recorded dependency
   set — generation would take exactly the recorded path. *)
let target_reusable t deps =
  not (List.exists (fun c -> List.mem c deps) t.changed_rules)

(* The cell rule, for [warm_edges] and [preview] alike: cell
   ((target, q), cost) stands when q's column dependency set is known
   and every changed rule is either disabled by the cell's target
   (Cost(q, ¬R) never consults a disabled rule's body) or absent from
   that set. [coldeps] maps stored query indices to column deps. *)
let cell_reusable t coldeps ~disabled qold =
  match Hashtbl.find_opt coldeps qold with
  | None -> false
  | Some deps ->
    List.for_all
      (fun c -> List.mem c disabled || not (List.mem c deps))
      t.changed_rules

let column_deps ms =
  let coldeps = Hashtbl.create 256 in
  List.iter (fun (q, deps) -> Hashtbl.replace coldeps q deps) ms.ms_columns;
  coldeps

(* A stored target is replayed when it also sits at the same index (same
   PRNG substream, same fresh-alias range): we skip generating it and
   serve the recorded result. *)
let suite_reuse t =
  match t.stored_suite with
  | Some ss when not t.full_rebuild ->
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (name, idx, deps, accepted) ->
        Hashtbl.replace tbl name (idx, deps, accepted))
      ss.ss_targets;
    Some
      (fun ti target ->
        match Hashtbl.find_opt tbl (Suite.target_name target) with
        | Some (idx, deps, accepted) when idx = ti && target_reusable t deps ->
          Some (accepted, deps)
        | _ -> None)
  | _ -> None

let generate ?extra_ops ?max_trials ~pool t g ~targets ~k =
  let reuse = suite_reuse t in
  let suite, records =
    Suite.generate_tracked ?extra_ops ?max_trials ?reuse ~pool t.fw g ~targets
      ~k
  in
  t.suite <- Some suite;
  t.records <- records;
  (match t.stored_matrix with
  | Some ms when not t.full_rebuild ->
    let qmap : int L.Tbl.t = L.Tbl.create 256 in
    Array.iteri
      (fun i (e : Suite.entry) -> L.Tbl.replace qmap e.query i)
      suite.entries;
    t.reindex <- Some (ms, qmap)
  | _ -> ());
  List.iter
    (fun (r : Suite.gen_record) ->
      if r.gr_reused then begin
        t.targets_reused <- t.targets_reused + 1;
        t.entries_reused <- t.entries_reused + List.length r.gr_accepted
      end)
    records;
  if Obs.Metrics.enabled () then
    Obs.Metrics.add entries_reused_c t.entries_reused;
  suite

(* The new entry index of a stored query index, matched by content, so
   cells and column deps survive even when entry indices shift because
   an earlier target regenerated. *)
let requery (ms, qmap) qold =
  if qold >= 0 && qold < Array.length ms.ms_entries then
    L.Tbl.find_opt qmap ms.ms_entries.(qold)
  else None

(* Surviving matrix cells, re-indexed to the new suite. *)
let warm_edges t =
  match (t.suite, t.reindex) with
  | None, _ -> invalid_arg "Incr.warm_edges: generate first"
  | _, None -> []
  | Some suite, Some ((ms, _) as ri) ->
    let tmap = Hashtbl.create 64 in
    List.iteri
      (fun ti target -> Hashtbl.replace tmap (Suite.target_name target) (ti, target))
      suite.targets;
    let coldeps = column_deps ms in
    List.filter_map
      (fun ((tname, qold), cost) ->
        match (Hashtbl.find_opt tmap tname, requery ri qold) with
        | Some (ti, target), Some qnew
          when cell_reusable t coldeps ~disabled:(Suite.rules_of target) qold ->
          Some ((ti, qnew), cost)
        | _ -> None)
      ms.ms_cells

(* Fold a solved service into the session: its snapshot becomes the next
   manifest's cell set, and its computed column deps are unioned with
   the deps carried over for columns served entirely warm (whose rules
   never ran this time, so their recorded sets are still the truth). *)
let note_matrix t ec =
  if t.suite = None then invalid_arg "Incr.note_matrix: generate first";
  t.cells <- Compress.snapshot ec;
  t.edges_recomputed <- Compress.computed_edges ec;
  t.edges_reused <- Compress.warm_served_edges ec;
  if Obs.Metrics.enabled () then
    Obs.Metrics.add edges_recomputed_c t.edges_recomputed;
  let cols = Hashtbl.create 256 in
  Option.iter
    (fun ((ms, _) as ri) ->
      List.iter
        (fun (qold, deps) ->
          match requery ri qold with
          | Some qnew -> Hashtbl.replace cols qnew deps
          | None -> ())
        ms.ms_columns)
    t.reindex;
  List.iter
    (fun (q, deps) ->
      match Hashtbl.find_opt cols q with
      | None -> Hashtbl.replace cols q deps
      | Some prev ->
        Hashtbl.replace cols q
          (List.sort_uniq String.compare (List.rev_append deps prev)))
    (Compress.column_deps ec);
  t.columns <- List.sort compare (List.of_seq (Hashtbl.to_seq cols))

let finish t =
  match t.suite with
  | None -> invalid_arg "Incr.finish: generate first"
  | Some suite ->
    let ss =
      { ss_targets =
          List.map
            (fun (r : Suite.gen_record) ->
              ( Suite.target_name r.gr_target,
                r.gr_index,
                r.gr_deps,
                r.gr_accepted ))
            t.records }
    in
    let tnames = Array.of_list (List.map Suite.target_name suite.targets) in
    let ms =
      { ms_entries = Array.map (fun (e : Suite.entry) -> e.query) suite.entries;
        ms_columns = t.columns;
        ms_cells =
          List.filter_map
            (fun ((ti, qi), cost) ->
              if ti >= 0 && ti < Array.length tnames then
                Some ((tnames.(ti), qi), cost)
              else None)
            t.cells }
    in
    let m = M.make ~config:t.config ~rules:(rules_info t.fw) in
    let m = M.set_section m "suite" (Marshal.to_string ss []) in
    let m = M.set_section m "matrix" (Marshal.to_string ms []) in
    M.save t.dc ~key:t.key m

(* Everything a delta report needs, computable with and without having
   run the pipeline: the classified rule diff plus reuse tallies. Before
   [generate], the tallies preview what the manifest alone proves
   reusable; after a run they are the actual counts. *)
type report = {
  manifest_found : bool;
  rules_total : int;
  rules_changed : (string * string) list;  (* name, change kind *)
  full_rebuild : bool;
  targets_reusable : int;
  targets_total : int;
  entries_reused : int;
  edges_reusable : int;
  edges_total : int;
  edges_recomputed : int;
}

let preview t =
  let stored_targets =
    match t.stored_suite with Some ss -> ss.ss_targets | None -> []
  in
  let reusable_target (_, _, deps, _) =
    (not t.full_rebuild) && target_reusable t deps
  in
  let stored_cells, reusable_cells =
    match t.stored_matrix with
    | None -> (0, 0)
    | Some ms ->
      let reusable =
        if t.full_rebuild then 0
        else
          let coldeps = column_deps ms in
          (* Without the live target list we conservatively parse the
             disabled set out of the stored name. *)
          List.length
            (List.filter
               (fun ((tname, qold), _) ->
                 cell_reusable t coldeps
                   ~disabled:(String.split_on_char '+' tname)
                   qold)
               ms.ms_cells)
      in
      (List.length ms.ms_cells, reusable)
  in
  { manifest_found = t.old <> None;
    rules_total = List.length (Framework.rules t.fw);
    rules_changed =
      List.map (fun (n, c) -> (n, M.change_to_string c)) t.changes;
    full_rebuild = t.full_rebuild;
    targets_reusable = List.length (List.filter reusable_target stored_targets);
    targets_total = List.length stored_targets;
    entries_reused = t.entries_reused;
    edges_reusable = reusable_cells;
    edges_total = stored_cells;
    edges_recomputed = t.edges_recomputed }

let result t =
  let p = preview t in
  { p with
    targets_reusable = t.targets_reused;
    targets_total = List.length t.records;
    entries_reused = t.entries_reused;
    edges_reusable = t.edges_reused;
    edges_total = t.edges_recomputed + t.edges_reused;
    edges_recomputed = t.edges_recomputed }
