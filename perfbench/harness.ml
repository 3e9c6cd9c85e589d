(* One repetition of one benchmark workload, in a fresh process.

   Usage:
     harness.exe --workload W --seed N [--trace 0|1] [--cache-dir DIR]
                 [--spans FILE] [--check-cold]

   Runs the workload's set-up, then its timed part through the public API
   of core, triage, executor and storage on one domain, checks the
   outputs, and prints one JSON object on the last line of stdout:
   end-to-end measures, per-layer measures, operation counts and the
   result of every output check. run.py repeats this for the measuring
   window and reduces the repetitions to means.

   Layer timings come from benchmark-side spans around each public call
   (never from inside lib/). With --trace 1 the program's own
   Obs.Profile spans and Obs.Metrics counters are switched on for the
   timed part and the self times and counts they record are reported
   too; --spans FILE writes the benchmark-side spans as JSON lines. *)

module J = Obs.Json
module Suite = Core.Suite
module Compress = Core.Compress
module Correctness = Core.Correctness
module Framework = Core.Framework

(* ------------------------------------------------------------------ *)
(* Workload parameters                                                 *)
(* ------------------------------------------------------------------ *)

let budget = 400
let k = 3
let extra_ops = 2

(* registry-campaign: singletons of a registry prefix plus the §3.2
   pairs of a shorter prefix. *)
let rc_singletons = 8
let rc_pair_rules = 3
let rc_scale = 0.002
let rc_query_seed = 5
let rc_setup_reps = 7

(* fault-hunt: every Core.Faults variant injected into one registry;
   the targets are the four victims, with more queries each. Triage
   reduces the first [fh_triaged] raw bugs validation reports, so every
   seed triages the same number of bugs. *)
let fh_k = 8
let fh_gen_scale = 0.02
let fh_scale = 0.1
let fh_query_seed = 4
let fh_triaged = 4
let fh_setup_reps = 1

(* rule-edit: singletons of every eighth rule among the first 32 (rules
   from different families, so an edit leaves some targets reusable);
   every one of them is edited once, in an order drawn from the workload
   seed. *)
let re_rules = List.filteri (fun i _ -> i mod 8 = 0 && i < 32) Optimizer.Rules.names
let re_scale = rc_scale
let re_query_seed = rc_query_seed
let re_setup_reps = rc_setup_reps

(* Each workload generates its suite from a pinned query-generation seed
   over a pinned TPC-H instance (Datagen's default seed), so every
   workload seed runs a campaign of the same shape and size. The
   workload seed picks what varies: the TPC-H instance the suite is
   validated and triaged against (values and NULL placement), and the
   order of rule-edit's edits. *)

let options = { Optimizer.Engine.default_options with max_trees = budget }
let pool = Par.Pool.create ~jobs:1 ()
let prefix n l = List.filteri (fun i _ -> i < n) l
let singles n = List.map (fun r -> Suite.Single r) (prefix n Optimizer.Rules.names)

(* ------------------------------------------------------------------ *)
(* Benchmark-side spans                                                *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 at top level *)
  start_s : float;
  end_s : float;
  alloc_w : float;  (** words allocated inside the span *)
}

let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let now = Obs.Clock.now_s

(* [Gc.minor_words] counts the words of the current minor heap too;
   [Gc.quick_stat]'s minor count only moves at minor collections. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.major_words -. s.promoted_words

let span name f =
  incr next_id;
  let id = !next_id in
  let parent = match !open_spans with p :: _ -> p | [] -> 0 in
  open_spans := id :: !open_spans;
  let w0 = allocated_words () in
  let start_s = now () in
  let finish () =
    let end_s = now () in
    open_spans := List.tl !open_spans;
    spans :=
      { id; name; parent; start_s; end_s; alloc_w = allocated_words () -. w0 }
      :: !spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Set once the timed part has run; layer totals count only spans
   inside it. *)
let timed_window = ref (0., 0.)

let in_window s =
  let t0, t1 = !timed_window in
  s.start_s >= t0 && s.end_s <= t1

let layer_sum f name =
  List.fold_left
    (fun acc s -> if s.name = name && in_window s then acc +. f s else acc)
    0. !spans

let layer_seconds = layer_sum (fun s -> s.end_s -. s.start_s)
let layer_mwords name = layer_sum (fun s -> s.alloc_w) name /. 1e6

let write_spans ~run_id file =
  let oc = open_out file in
  List.iter
    (fun s ->
      output_string oc
        (J.to_string
           (J.Obj
              [ ("run", J.String run_id);
                ("id", J.Int s.id);
                ("parent", J.Int s.parent);
                ("name", J.String s.name);
                ("start_s", J.Float s.start_s);
                ("end_s", J.Float s.end_s);
                ("alloc_words", J.Float s.alloc_w) ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Counters gathered from API return values                            *)
(* ------------------------------------------------------------------ *)

let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let bump name v =
  Hashtbl.replace counts name (v +. Option.value ~default:0. (Hashtbl.find_opt counts name))

let count name = Option.value ~default:0. (Hashtbl.find_opt counts name)

(* Operations: one (target, query) validation each. *)
let attempted = ref 0
let failed = ref 0

(* Output checks: (name, passed, detail). *)
let checks : (string * bool * string) list ref = ref []
let check name ok detail = checks := (name, ok, detail) :: !checks

(* ------------------------------------------------------------------ *)
(* Pipeline stages, each wrapped in its layer span                     *)
(* ------------------------------------------------------------------ *)

let generate ?(k = k) fw ~query_seed ~targets =
  let runs0 = Framework.invocations fw in
  let suite =
    span "suite.generate" (fun () ->
        Suite.generate ~extra_ops ~pool fw (Storage.Prng.create query_seed) ~targets ~k)
  in
  bump "suite.queries" (float (Array.length suite.entries));
  bump "suite.optimizer_runs" (float (Framework.invocations fw - runs0));
  suite

let topk ?disk ?(warm_edges = []) fw suite =
  span "compress.topk" (fun () ->
      let ec = Compress.edge_costs ?disk ~warm_edges fw suite in
      let sol = Compress.topk ~pool ~ec fw suite in
      bump "compress.edges_computed" (float (Compress.computed_edges ec));
      bump "compress.edges_warm" (float (Compress.warm_served_edges ec));
      (ec, sol))

let validate fw suite (sol : Compress.solution) =
  let report = span "correctness.validate" (fun () -> Correctness.run ~pool fw suite sol) in
  bump "correctness.executions" (float report.executions);
  bump "correctness.skipped_identical" (float report.skipped_identical);
  bump "correctness.bugs" (float (List.length report.bugs));
  let deficit l = List.fold_left (fun acc (_, d) -> acc + d) 0 l in
  attempted := !attempted + report.pairs_checked;
  failed :=
    !failed + List.length report.errors + deficit (Suite.shortfall suite)
    + deficit sol.under_covered;
  report

(* A clean registry must validate with no bug (a bug there is a false
   positive), no error, no shortfall and no under-covered target. *)
let check_clean label suite (sol : Compress.solution) (report : Correctness.report) =
  let n l = List.length l in
  check (label ^ ".no_bugs") (report.bugs = []) (Printf.sprintf "%d bugs" (n report.bugs));
  check (label ^ ".no_errors") (report.errors = [])
    (match report.errors with
    | (ctx, msg) :: _ -> ctx ^ ": " ^ msg
    | [] -> "");
  check (label ^ ".no_shortfall") (Suite.shortfall suite = [])
    (Printf.sprintf "%d short targets" (n (Suite.shortfall suite)));
  check (label ^ ".covered") (sol.under_covered = [])
    (Printf.sprintf "%d under-covered targets" (n sol.under_covered))

(* Canonical text of what a campaign tested: per target, its generated
   queries, then the chosen assignment. Its digest identifies the suite
   across runs. *)
let suite_text (suite : Suite.t) (sol : Compress.solution) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (t, idx) ->
      Buffer.add_string b (Suite.target_name t);
      List.iter
        (fun i ->
          Buffer.add_char b '|';
          Buffer.add_string b (Relalg.Logical.to_string suite.entries.(i).query))
        idx;
      Buffer.add_char b '\n')
    suite.per_target;
  List.iter
    (fun (t, picks) ->
      Buffer.add_string b (Suite.target_name t);
      List.iter (fun (q, c) -> Buffer.add_string b (Printf.sprintf " %d:%h" q c)) picks;
      Buffer.add_char b '\n')
    sol.assignment;
  Buffer.contents b

let report_text (r : Correctness.report) =
  Printf.sprintf "checked=%d executions=%d skipped=%d bugs=%d errors=%d" r.pairs_checked
    r.executions r.skipped_identical (List.length r.bugs) (List.length r.errors)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Set-up (catalog generation and Framework.create) is repeated and
   reported as the median of its repetitions; the last repetition's
   catalogs and frameworks are used. [setup_extra] holds set-up work done
   once (the rule-edit cold build). *)
let setup_times = ref []
let datagen_times = ref []
let setup_extra = ref 0.

let set_up ~reps make =
  let once () =
    let t0 = now () in
    let datagen_s = ref 0. in
    let datagen ?seed scale =
      let t = now () in
      let cat = Storage.Datagen.tpch ?seed ~scale () in
      datagen_s := !datagen_s +. (now () -. t);
      cat
    in
    let v = make datagen in
    datagen_times := !datagen_s :: !datagen_times;
    setup_times := (now () -. t0) :: !setup_times;
    v
  in
  let rec go i = if i = 1 then once () else (ignore (once ()); go (i - 1)) in
  go reps

(* Every Core.Faults variant in one registry, each at its victim's slot. *)
let all_faults () =
  List.map
    (fun (r : Optimizer.Rule.t) ->
      if List.mem r.name Core.Faults.names then
        List.find
          (fun (f : Optimizer.Rule.t) -> String.equal f.name r.name)
          (Core.Faults.inject r.name)
      else r)
    Optimizer.Rules.all

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let cpu_now () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* [timed] runs the timed part and records its window; program
   telemetry, when traced, covers exactly that window. *)
let trace = ref false
let cpu_window = ref 0.
let gc_window = ref 0

let timed f =
  if !trace then begin
    Obs.Metrics.set_enabled true;
    Obs.Metrics.reset ();
    Obs.Profile.enable ()
  end;
  let gc0 = (Gc.quick_stat ()).major_collections in
  let c0 = cpu_now () in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  cpu_window := cpu_now () -. c0;
  gc_window := (Gc.quick_stat ()).major_collections - gc0;
  timed_window := (t0, t1);
  if !trace then Obs.Profile.disable ();
  v

let registry_campaign seed =
  let gen_fw, fw =
    set_up ~reps:rc_setup_reps (fun datagen ->
        let pinned = datagen rc_scale and instance = datagen ~seed rc_scale in
        (Framework.create ~options pinned, Framework.create ~options instance))
  in
  let targets = singles rc_singletons @ Suite.all_pairs (prefix rc_pair_rules Optimizer.Rules.names) in
  let suite, sol, report =
    timed (fun () ->
        let suite = generate gen_fw ~query_seed:rc_query_seed ~targets in
        let _, sol = topk gen_fw suite in
        (suite, sol, validate fw suite sol))
  in
  check_clean "registry-campaign" suite sol report;
  (sol.total_cost, suite_text suite sol)

let fault_hunt seed =
  let gen_fw, fw =
    set_up ~reps:fh_setup_reps (fun datagen ->
        let pinned = datagen fh_gen_scale and instance = datagen ~seed fh_scale in
        let rules = all_faults () in
        (Framework.create ~options ~rules pinned, Framework.create ~options ~rules instance))
  in
  let targets = List.map (fun r -> Suite.Single r) Core.Faults.names in
  let suite, sol, tri =
    timed (fun () ->
        let suite = generate ~k:fh_k gen_fw ~query_seed:fh_query_seed ~targets in
        let _, sol = topk gen_fw suite in
        let report = validate fw suite sol in
        let report = { report with bugs = prefix fh_triaged report.bugs } in
        let tri =
          span "triage.reduce" (fun () -> Triage.Pipeline.triage ~pool fw report)
        in
        (suite, sol, tri))
  in
  bump "triage.oracle_checks" (float tri.checks);
  bump "triage.executions" (float tri.executions);
  bump "triage.bugs_found" (float (List.length tri.cases));
  bump "triage.reproducer_nodes"
    (float
       (List.fold_left
          (fun acc (c : Triage.Pipeline.case) -> acc + Relalg.Logical.size c.reduced)
          0 tri.cases));
  (* Every reproducer must still diverge under the independent row
     interpreter: Plan(q) against Plan(q, ¬R). *)
  check "fault-hunt.bugs_triaged" (List.length tri.cases + tri.duplicates = fh_triaged)
    (Printf.sprintf "%d of %d bugs triaged" (List.length tri.cases + tri.duplicates) fh_triaged);
  check "fault-hunt.no_irreducible" (tri.irreducible = [])
    (Printf.sprintf "%d irreducible" (List.length tri.irreducible));
  List.iter
    (fun (c : Triage.Pipeline.case) ->
      let name = Suite.target_name c.target in
      let run ?disabled () =
        match Framework.optimize fw ?disabled c.reduced with
        | Error e -> Error ("optimize: " ^ e)
        | Ok r -> Executor.Exec.run_interpreted (Framework.catalog fw) r.plan
      in
      let diverges =
        match (run (), run ~disabled:(Suite.rules_of c.target) ()) with
        | Ok a, Ok b -> not (Executor.Resultset.equal_bag a b)
        | Ok _, Error _ -> true
        | Error _, _ -> false
      in
      check ("fault-hunt.reproducer." ^ name) diverges
        (Relalg.Logical.to_string c.reduced))
    tri.cases;
  (sol.total_cost, suite_text suite sol)

let rule_edit seed ~cache_dir ~check_cold =
  let cat = set_up ~reps:re_setup_reps (fun datagen -> datagen re_scale) in
  let targets = List.map (fun r -> Suite.Single r) re_rules in
  let desc =
    Printf.sprintf "validate|seed=%d|n=%d|k=%d|inject=-|budget=%d" re_query_seed
      (List.length re_rules) k budget
  in
  (* The cache directory as `qtr validate --incremental --cache-dir`
     lays it out: result-cache disk tier, spilled matrices, manifest. *)
  let dc = Storage.Diskcache.create ~dir:cache_dir () in
  Executor.Cache.set_disk
    (Some (dc, Printf.sprintf "cat-%x" (Storage.Catalog.content_hash cat)));
  let incremental rules =
    let fw = span "framework.create" (fun () -> Framework.create ~options ~rules cat) in
    let sess = span "incr.diff" (fun () -> Core.Incr.start ~dc ~desc fw) in
    let suite =
      span "suite.generate" (fun () ->
          Core.Incr.generate ~extra_ops ~pool sess (Storage.Prng.create re_query_seed)
            ~targets ~k)
    in
    bump "suite.queries" (float (Array.length suite.entries));
    bump "suite.optimizer_runs" (float (Framework.invocations fw));
    let ec, sol = topk ~disk:dc ~warm_edges:(Core.Incr.warm_edges sess) fw suite in
    let written =
      span "incr.persist" (fun () ->
          Core.Incr.note_matrix sess ec;
          Core.Incr.finish sess)
    in
    if not written then incr failed;
    let report = validate fw suite sol in
    (fw, sess, suite, sol, report)
  in
  (* Set-up: the cold build that writes the first manifest. *)
  let t0 = now () in
  let _, sess0, _, _, _ = incremental Optimizer.Rules.all in
  setup_extra := now () -. t0;
  check "rule-edit.cold_start" (Core.Incr.cold sess0) "cache dir held a manifest";
  Hashtbl.reset counts;
  attempted := 0;
  failed := 0;
  (* Timed: a seeded sequence of cumulative body edits, each followed by
     the incremental regenerate/recompress/revalidate loop. The
     in-process memos are dropped before each edit, as a fresh `qtr`
     process would start without them; the disk tier persists. *)
  let g = Storage.Prng.create seed in
  let edited = Storage.Prng.shuffle g re_rules in
  let final =
    timed (fun () ->
        List.fold_left
          (fun (rules, _) name ->
            let rules =
              span "rules.edit" (fun () ->
                  Executor.Cache.clear ();
                  Relalg.Hashcons.clear ();
                  Relalg.Props.clear ();
                  Optimizer.Rules.simulate_edit ~rules name)
            in
            let fw, sess, suite, sol, report = incremental rules in
            let r = Core.Incr.result sess in
            bump "incr.entries_reused" (float r.entries_reused);
            bump "incr.edges_reused" (float r.edges_reusable);
            bump "incr.edges_total" (float r.edges_total);
            check_clean ("rule-edit." ^ name) suite sol report;
            (rules, Some (fw, suite, sol, report)))
          (Optimizer.Rules.all, None) edited)
  in
  let rules, last = final in
  let _, suite, sol, report = Option.get last in
  (* The final incremental state must equal a cold rebuild under the
     same edited registry. *)
  if check_cold then begin
    Executor.Cache.set_disk None;
    Executor.Cache.clear ();
    Relalg.Hashcons.clear ();
    Relalg.Props.clear ();
    let fw = Framework.create ~options ~rules cat in
    let suite' =
      Suite.generate ~extra_ops ~pool fw (Storage.Prng.create re_query_seed) ~targets ~k
    in
    let sol' = Compress.topk ~pool fw suite' in
    let report' = Correctness.run ~pool fw suite' sol' in
    check "rule-edit.equals_cold.suite"
      (String.equal (suite_text suite sol) (suite_text suite' sol'))
      "incremental suite or assignment differs from a cold rebuild";
    check "rule-edit.equals_cold.report"
      (String.equal (report_text report) (report_text report'))
      (report_text report ^ " vs " ^ report_text report')
  end;
  let rec du path =
    if Sys.is_directory path then
      Array.fold_left (fun acc f -> acc + du (Filename.concat path f)) 0 (Sys.readdir path)
    else (Unix.stat path).st_size
  in
  bump "storage.cache_bytes" (float (du cache_dir));
  (sol.total_cost, suite_text suite sol)

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  let v = scan () in
  close_in ic;
  v

(* Program-side telemetry for the traced run: self time of the
   program's own spans, and its counters. *)
let profile_self prefixes =
  List.fold_left
    (fun acc (r : Obs.Profile.row) ->
      if List.exists (fun p -> String.starts_with ~prefix:p r.name) prefixes then
        acc +. (r.self_ns /. 1e9)
      else acc)
    0. (Obs.Profile.rows ())

let program_metrics () =
  let c name = float (Obs.Metrics.counter_total name) in
  let hits = c "executor.result_cache.hits" and misses = c "executor.result_cache.misses" in
  [ ("optimizer.explore_self_s", profile_self [ "engine.explore" ]);
    ("optimizer.cost_self_s", profile_self [ "engine.cost" ]);
    ("query_gen.self_s", profile_self [ "qgen." ]);
    ("executor.batch_self_s", profile_self [ "exec.batch" ]);
    ("executor.rows", c "executor.rows");
    ("executor.result_cache_lookups", hits +. misses);
    ("executor.result_cache_disk_hits", c "executor.result_cache.disk_hits");
    ( "executor.result_cache_hit_ratio",
      if hits +. misses > 0. then hits /. (hits +. misses) else 0. );
    ("framework.shared_cost_passes", c "framework.shared_cost_passes");
    ("gc.major_collections", float !gc_window) ]

let layer_metrics ~verdict_s =
  let top =
    List.fold_left
      (fun acc s ->
        if s.parent = 0 && in_window s then
          acc +. (s.end_s -. s.start_s)
        else acc)
      0. !spans
  in
  let timed_layer name = (name ^ "_s", layer_seconds name) in
  let alloc layer name = (layer ^ ".alloc_mw", layer_mwords name) in
  let edges_total = count "incr.edges_total" in
  [ timed_layer "suite.generate";
    alloc "suite" "suite.generate";
    ("suite.queries", count "suite.queries");
    ("suite.optimizer_runs", count "suite.optimizer_runs");
    timed_layer "compress.topk";
    alloc "compress" "compress.topk";
    ("compress.edges_computed", count "compress.edges_computed");
    ("compress.edges_warm", count "compress.edges_warm");
    ("correctness.validate_s", layer_seconds "correctness.validate");
    alloc "correctness" "correctness.validate";
    ("correctness.executions", count "correctness.executions");
    ("correctness.skipped_identical", count "correctness.skipped_identical");
    ("correctness.bugs", count "correctness.bugs");
    timed_layer "triage.reduce";
    alloc "triage" "triage.reduce";
    ("triage.oracle_checks", count "triage.oracle_checks");
    ("triage.executions", count "triage.executions");
    ("triage.bugs_found", count "triage.bugs_found");
    ("triage.reproducer_nodes", count "triage.reproducer_nodes");
    timed_layer "incr.diff";
    timed_layer "incr.persist";
    ( "incr.edges_reused_share",
      if edges_total > 0. then count "incr.edges_reused" /. edges_total else 0. );
    ("incr.entries_reused", count "incr.entries_reused");
    ("storage.datagen_s", median !datagen_times);
    ("storage.cache_bytes", count "storage.cache_bytes");
    ("trace.top_span_coverage", if verdict_s > 0. then top /. verdict_s else 0.) ]

let () =
  let workload = ref "" and seed = ref 1 and cache_dir = ref "" and spans_file = ref "" in
  let check_cold = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W registry-campaign | fault-hunt | rule-edit");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--trace", Arg.Int (fun t -> trace := t = 1), "0|1 switch on program telemetry");
      ("--cache-dir", Arg.Set_string cache_dir, "DIR fresh cache directory (rule-edit)");
      ("--spans", Arg.Set_string spans_file, "FILE write benchmark-side spans");
      ("--check-cold", Arg.Set check_cold, " rule-edit: compare with a cold rebuild") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness.exe --workload W --seed N";
  let seed = !seed in
  let suite_cost, text =
      match !workload with
      | "registry-campaign" -> registry_campaign seed
      | "fault-hunt" -> fault_hunt seed
      | "rule-edit" ->
        if !cache_dir = "" then failwith "rule-edit needs --cache-dir";
        rule_edit seed ~cache_dir:!cache_dir ~check_cold:!check_cold
      | w -> failwith ("unknown workload " ^ w)
  in
  let t_begin, t_end = !timed_window in
  let verdict_s = t_end -. t_begin in
  let setup_s = median !setup_times +. !setup_extra in
  let failed_checks = List.filter (fun (_, ok, _) -> not ok) !checks in
  let metrics =
    [ ("setup_s", setup_s);
      ("verdict_s", verdict_s);
      ("cpu_s", !cpu_window);
      ("peak_rss_mb", peak_rss_mb ());
      ("suite_cost", suite_cost) ]
  in
  let layers =
    layer_metrics ~verdict_s @ if !trace then program_metrics () else []
  in
  if !spans_file <> "" then
    write_spans ~run_id:(Printf.sprintf "%s-%d-%d" !workload seed (Unix.getpid ()))
      !spans_file;
  let num l = J.Obj (List.map (fun (n, v) -> (n, J.Float v)) l) in
  print_endline
    (J.to_string
       (J.Obj
          [ ("workload", J.String !workload);
            ("seed", J.Int seed);
            ("trace", J.Bool !trace);
            ("digest", J.String (Digest.to_hex (Digest.string text)));
            ("attempted", J.Int !attempted);
            ("failed", J.Int !failed);
            ("correct", J.Bool (failed_checks = []));
            ( "failed_checks",
              J.List
                (List.map
                   (fun (n, _, d) -> J.Obj [ ("check", J.String n); ("detail", J.String d) ])
                   failed_checks) );
            ("checks", J.Int (List.length !checks));
            ("metrics", num metrics);
            ("layers", num layers) ]))
