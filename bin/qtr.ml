(* qtr — command-line interface to the rule-testing framework.

     qtr rules                         list transformation rules + patterns
     qtr optimize --sql "SELECT ..."   optimize a SQL query, show plan/RuleSet
     qtr generate --rule JoinCommute   emit a SQL test case for a rule
     qtr generate --pair A,B           ... for a rule pair
     qtr coverage --rules 30           Figure-8-style coverage table
     qtr compress --rules 10 -k 5      compare BASELINE/SMC/TOPK
     qtr validate --rules 10 -k 3      run correctness testing
     qtr validate --inject SelectMerge ... with a buggy rule injected
     qtr reduce --inject SelectMerge --corpus corpus/
                                       minimize + dedup + persist reproducers
     qtr replay --corpus corpus/       re-execute the regression corpus
     qtr discover --alphabet setops    mine/validate/rank/promote rewrite rules
     qtr verify-rules                  check DSL rules with the symbolic oracle
     qtr delta --cache-dir DIR         preview the reusable incremental slice
     qtr stats                         per-rule optimizer metrics table
     qtr profile --jobs 4              in-process span profile of a workload
     qtr report --rules 10 -k 3        one-shot campaign summary (text/JSON)
     qtr bench-diff OLD NEW            regression-gate two bench result files

   Every subcommand but rules and bench-diff accepts --trace FILE to
   record a Chrome trace-event JSONL trace (which also turns metrics
   collection on); most accept --json for machine-readable output.
   compress, validate, reduce, stats and report share one option set
   (the campaign term below), and the first four of them run the one
   campaign pipeline of [run_campaign]. *)

open Cmdliner
open Storage

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)
(* ------------------------------------------------------------------ *)

let scale_arg =
  Arg.(value & opt float 0.002 & info [ "scale" ] ~docv:"SF" ~doc:"TPC-H scale factor.")

let seed_arg =
  Arg.(value & opt int 2009 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let budget_arg =
  Arg.(
    value
    & opt int 400
    & info [ "budget" ] ~docv:"TREES" ~doc:"Optimizer exploration budget (trees).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a Chrome trace-event JSONL trace of the whole run to $(docv) and \
           enable metrics collection. Load it in chrome://tracing or Perfetto after \
           wrapping in a JSON array: jq -s . $(docv).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON on stdout.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel phases (suite generation, the edge-cost \
           matrix, validation, reduction, replay). Defaults to the machine's \
           recommended domain count. Results are identical for every $(docv), \
           including 1.")

let pool_of jobs =
  match jobs with
  | None -> Par.Pool.create ()
  | Some j -> Par.Pool.create ~jobs:j ()

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persistent warm-start cache directory. Execution results and §5 edge-cost \
           matrices computed this run are spilled there (atomic, versioned writes) \
           and reused by later runs over an identical catalog/rule-set/suite; stale \
           or corrupt entries are silently ignored. Safe to delete at any time.")

(* The disk tiers key everything by the catalog contents, so a cache
   directory can be shared across scales, seeds and machines: mismatched
   entries simply miss. *)
let setup_cache cache_dir cat =
  match cache_dir with
  | None -> None
  | Some dir ->
    let dc = Diskcache.create ~dir () in
    Executor.Cache.set_disk
      (Some (dc, Printf.sprintf "cat-%x" (Catalog.content_hash cat)));
    Some dc

(* The options of every command that runs a campaign over the TPC-H
   catalog: compress, validate, reduce, stats and report. *)
type campaign = {
  scale : float;
  budget : int;
  seed : int;
  jobs : int option;
  cache_dir : string option;
  trace : string option;
}

let campaign_term =
  Term.(
    const (fun scale budget seed jobs cache_dir trace ->
        { scale; budget; seed; jobs; cache_dir; trace })
    $ scale_arg $ budget_arg $ seed_arg $ jobs_arg $ cache_dir_arg $ trace_arg)

let inject_arg doc =
  Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"RULE" ~doc)

let incremental_flag =
  Arg.(
    value & flag
    & info [ "incremental" ]
        ~doc:
          "Maintain the pipeline incrementally against the $(b,--cache-dir) manifest: \
           diff the live rule-content fingerprints against the last run's, replay the \
           suite targets and edge-cost matrix cells the diff proves unaffected, and \
           recompute only the stale slice. Results are byte-identical to a cold \
           rebuild at any $(b,--jobs). Requires $(b,--cache-dir).")

let simulate_edit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "simulate-edit" ] ~docv:"RULE"
        ~doc:
          "Rebuild RULE under a fingerprint derived from its old one (same name, \
           pattern and behavior, new content fingerprint) before running — the \
           benchmark/CI stand-in for a behavior-preserving refactor of a rule's \
           implementation.")

(* Every generation/compression parameter that shapes the artifacts goes
   into the manifest key (the catalog is hashed in by [Incr.config_key]),
   so runs with different configurations never see each other's
   manifests. *)
let compress_desc ~seed ~n ~k ~pairs ~budget =
  Printf.sprintf "compress|seed=%d|n=%d|k=%d|pairs=%b|budget=%d|extra=2|gen=pattern"
    seed n k pairs budget

let rules_changed_json changed =
  Obs.Json.List
    (List.map
       (fun (name, change) ->
         Obs.Json.Obj
           [ ("rule", Obs.Json.String name); ("change", Obs.Json.String change) ])
       changed)

let delta_report_json sess =
  let r = Core.Incr.result sess in
  Obs.Json.Obj
    [ ("cold", Obs.Json.Bool (Core.Incr.cold sess));
      ("full_rebuild", Obs.Json.Bool r.full_rebuild);
      ("rules_changed", rules_changed_json r.rules_changed);
      ("targets_reused", Obs.Json.Int r.targets_reusable);
      ("targets_total", Obs.Json.Int r.targets_total);
      ("entries_reused", Obs.Json.Int r.entries_reused);
      ("edges_reused", Obs.Json.Int r.edges_reusable);
      ("edges_recomputed", Obs.Json.Int r.edges_recomputed);
      ("edges_total", Obs.Json.Int r.edges_total) ]

let print_delta_summary sess =
  let r = Core.Incr.result sess in
  if Core.Incr.cold sess then
    print_endline "delta: no manifest found — cold rebuild, manifest written"
  else begin
    (match r.rules_changed with
    | [] -> print_endline "delta: rule registry unchanged since last manifest"
    | changed ->
      Printf.printf "delta: %d rule(s) drifted: %s\n" (List.length changed)
        (String.concat ", "
           (List.map (fun (n, c) -> Printf.sprintf "%s (%s)" n c) changed)));
    Printf.printf
      "delta: reused %d/%d targets (%d suite entries), %d/%d edges served warm, %d \
       recomputed%s\n"
      r.targets_reusable r.targets_total r.entries_reused r.edges_reusable
      r.edges_total r.edges_recomputed
      (if r.full_rebuild then " [pattern change or new rule: full rebuild]" else "")
  end

(* Telemetry is off unless asked for: tracing implies metrics, so the
   per-rule tables under `--json`/`qtr stats` line up with the spans. *)
let with_telemetry trace f =
  match trace with
  | None -> f ()
  | Some path ->
    Obs.Metrics.set_enabled true;
    (try Obs.Trace.start path
     with Sys_error e ->
       Printf.eprintf "cannot open trace file: %s\n" e;
       exit 1);
    Fun.protect ~finally:Obs.Trace.stop f

let make_fw ?rules scale budget =
  let cat = Datagen.tpch ~scale () in
  let options = { Optimizer.Engine.default_options with max_trees = budget } in
  Core.Framework.create ~options ?rules cat

let first_rules n = List.filteri (fun i _ -> i < n) Optimizer.Rules.names

(* A generated suite and the one edge-cost service that every algorithm
   of the command shares. *)
type run = {
  pool : Par.Pool.t;
  fw : Core.Framework.t;
  suite : Core.Suite.t;
  ec : Core.Compress.edge_costs;
  sess : Core.Incr.t option;
}

(* The campaign pipeline of compress, validate, reduce and report: the
   framework and the disk tier; with [?manifest] (the manifest
   description, given under --incremental) an incremental session; the
   suite; and one edge-cost service, warmed from the disk tier and the
   manifest, shared by every algorithm [solve] runs. [announce] runs just
   before generation. The session records the solved service in its
   manifest before this returns. *)
let run_campaign c ?rules ?manifest ?(announce = ignore) ~targets ~k solve =
  let pool = pool_of c.jobs in
  let fw = make_fw ?rules c.scale c.budget in
  let disk = setup_cache c.cache_dir (Core.Framework.catalog fw) in
  let sess =
    match (manifest, disk) with
    | None, _ -> None
    | Some _, None ->
      Printf.eprintf "qtr: --incremental requires --cache-dir\n";
      exit 1
    | Some desc, Some dc -> Some (Core.Incr.start ~dc ~desc fw)
  in
  announce pool;
  let g = Prng.create c.seed in
  let suite =
    match sess with
    | Some s -> Core.Incr.generate ~extra_ops:2 ~pool s g ~targets ~k
    | None -> Core.Suite.generate ~extra_ops:2 ~pool fw g ~targets ~k
  in
  let ec =
    Core.Compress.edge_costs ?disk
      ?warm_edges:(Option.map Core.Incr.warm_edges sess)
      fw suite
  in
  let r = { pool; fw; suite; ec; sess } in
  let solved = solve r in
  Option.iter
    (fun s ->
      Core.Incr.note_matrix s ec;
      if not (Core.Incr.finish s) then Printf.eprintf "warning: manifest write failed\n")
    sess;
  (r, solved)

(* The stochastic TPC-H workload of stats and profile: queries generated
   sequentially from one PRNG stream, then each optimized (and its
   outcome passed to [f]) as one task with its own fresh-name range, so
   the results are identical for every --jobs. *)
let stochastic_workload ~pool ~seed ~queries fw f =
  let ctx = { Core.Arggen.g = Prng.create seed; cat = Core.Framework.catalog fw } in
  let qs =
    Array.init queries (fun _ -> Core.Random_gen.generate ~min_ops:3 ~max_ops:8 ctx)
  in
  Par.Pool.map_array pool
    (fun (i, q) ->
      Relalg.Ident.set_fresh ((i + 1) * 100_000);
      f (Core.Framework.optimize fw q))
    (Array.mapi (fun i q -> (i, q)) qs)

(* ------------------------------------------------------------------ *)
(* Attribution rendering (shared by stats / profile / report)          *)
(* ------------------------------------------------------------------ *)

let counter_cell = function Some (Obs.Metrics.Counter c) -> c | _ -> 0

(* Per-worker wall-time decomposition accumulated by [Par.Pool] maps
   since metrics were enabled. Rows with zero wall (labels belonging to
   other metric families) are dropped. *)
type worker_util = {
  wu_worker : string;
  wu_busy : float;
  wu_steal : float;
  wu_idle : float;
  wu_merge : float;
  wu_wall : float;
  wu_tasks : int;
}

let pool_utilization () =
  Obs.Report.label_table
    [ "par.pool.busy_ns"; "par.pool.steal_ns"; "par.pool.idle_ns";
      "par.pool.merge_wait_ns"; "par.pool.wall_ns"; "par.pool.tasks" ]
  |> List.filter_map (fun (label, values) ->
         match values with
         | [ b; s; i; m; w; t ] ->
           let wall = float_of_int (counter_cell w) in
           if wall <= 0.0 && counter_cell t = 0 then None
           else
             Some
               { wu_worker = label;
                 wu_busy = float_of_int (counter_cell b);
                 wu_steal = float_of_int (counter_cell s);
                 wu_idle = float_of_int (counter_cell i);
                 wu_merge = float_of_int (counter_cell m);
                 wu_wall = wall;
                 wu_tasks = counter_cell t }
         | _ -> None)
  |> List.sort (fun a b ->
         let num u =
           try int_of_string (String.sub u.wu_worker 1 (String.length u.wu_worker - 1))
           with _ -> max_int
         in
         compare (num a) (num b))

let cache_attribution () =
  Obs.Report.label_table
    [ "executor.result_cache.hits"; "executor.result_cache.misses" ]
  |> List.filter_map (fun (site, values) ->
         match values with
         | [ h; m ] ->
           let hits = counter_cell h and misses = counter_cell m in
           if hits + misses = 0 then None else Some (site, hits, misses)
         | _ -> None)

let pct part whole = if whole <= 0.0 then 0.0 else 100.0 *. part /. whole

(* Below this the busy/steal/idle shares are quotients of measurement
   noise — the jobs=1 inline path runs tasks on the caller with
   essentially no tracked wall, and 100%/0% splits there just mislead. *)
let wall_noise_ns = 1e4

let print_pool_utilization () =
  match pool_utilization () with
  | [] -> print_endline "pool: no parallel maps recorded (run with --jobs 2+)"
  | rows ->
    List.iter
      (fun u ->
        if u.wu_wall < wall_noise_ns then
          Printf.printf
            "pool %-4s utilization n/a (inline execution, wall ~0) | %5d tasks\n"
            u.wu_worker u.wu_tasks
        else
          Printf.printf
            "pool %-4s busy %5.1f%% | steal %4.1f%% | idle %5.1f%% | merge %4.1f%% | \
             %5d tasks | wall %.2fs\n"
            u.wu_worker (pct u.wu_busy u.wu_wall) (pct u.wu_steal u.wu_wall)
            (pct u.wu_idle u.wu_wall) (pct u.wu_merge u.wu_wall) u.wu_tasks
            (u.wu_wall /. 1e9))
      rows

let print_cache_attribution () =
  match cache_attribution () with
  | [] -> ()
  | rows ->
    let cells =
      List.map
        (fun (site, h, m) ->
          Printf.sprintf "%s %d/%d (%.0f%%)" site h (h + m)
            (pct (float_of_int h) (float_of_int (h + m))))
        rows
    in
    Printf.printf "result cache by site (hits/lookups): %s\n"
      (String.concat " | " cells)

let global_counter name =
  match
    List.find_map
      (fun (n, l, v) -> if n = name && l = None then Some v else None)
      (Obs.Metrics.snapshot ())
  with
  | Some (Obs.Metrics.Counter c) -> c
  | _ -> 0

(* Warm-start traffic: the result-cache disk tier plus the spilled
   edge-cost matrix. Silent when no --cache-dir was given (all zeros). *)
let print_disk_cache () =
  let rh = global_counter "executor.result_cache.disk_hits" in
  let rm = global_counter "executor.result_cache.disk_misses" in
  let rs = global_counter "executor.result_cache.disk_stores" in
  let loaded = global_counter "compress.matrix.disk_edges_loaded" in
  let served = global_counter "compress.matrix.disk_served" in
  if rh + rm + rs + loaded + served > 0 then
    Printf.printf
      "disk cache: results %d hit / %d miss / %d stored | matrix %d edge(s) loaded, \
       %d served warm\n"
      rh rm rs loaded served

let disk_cache_json () =
  Obs.Json.Obj
    [ ("result_hits", Obs.Json.Int (global_counter "executor.result_cache.disk_hits"));
      ( "result_misses",
        Obs.Json.Int (global_counter "executor.result_cache.disk_misses") );
      ( "result_stores",
        Obs.Json.Int (global_counter "executor.result_cache.disk_stores") );
      ( "matrix_edges_loaded",
        Obs.Json.Int (global_counter "compress.matrix.disk_edges_loaded") );
      ( "matrix_served_warm",
        Obs.Json.Int (global_counter "compress.matrix.disk_served") );
      ( "matrix_edges_computed",
        Obs.Json.Int (global_counter "compress.edge_cost.computed") ) ]

let pool_utilization_json () =
  Obs.Json.List
    (List.map
       (fun u ->
         Obs.Json.Obj
           [ ("worker", Obs.Json.String u.wu_worker);
             ("busy_ns", Obs.Json.Float u.wu_busy);
             ("steal_ns", Obs.Json.Float u.wu_steal);
             ("idle_ns", Obs.Json.Float u.wu_idle);
             ("merge_wait_ns", Obs.Json.Float u.wu_merge);
             ("wall_ns", Obs.Json.Float u.wu_wall);
             ("tasks", Obs.Json.Int u.wu_tasks);
             ("busy_share", Obs.Json.Float (pct u.wu_busy u.wu_wall /. 100.0)) ])
       (pool_utilization ()))

let cache_attribution_json () =
  Obs.Json.List
    (List.map
       (fun (site, h, m) ->
         Obs.Json.Obj
           [ ("site", Obs.Json.String site);
             ("hits", Obs.Json.Int h);
             ("misses", Obs.Json.Int m) ])
       (cache_attribution ()))

(* ------------------------------------------------------------------ *)
(* qtr rules                                                           *)
(* ------------------------------------------------------------------ *)

let rules_cmd =
  let xml =
    Arg.(value & flag & info [ "xml" ] ~doc:"Print the full XML pattern document.")
  in
  let run xml =
    if xml then print_endline (Optimizer.Rules.all_patterns_xml ())
    else begin
      Printf.printf "%d exploration rules:\n" Optimizer.Rules.count;
      List.iter
        (fun (r : Optimizer.Rule.t) ->
          Format.printf "  %-34s %a@." r.name Dsl.Pattern.pp r.pattern)
        Optimizer.Rules.all;
      Printf.printf "%d implementation rules:\n"
        (List.length Optimizer.Engine.implementation_rule_names);
      List.iter (Printf.printf "  %s\n") Optimizer.Engine.implementation_rule_names
    end
  in
  Cmd.v (Cmd.info "rules" ~doc:"List transformation rules and their patterns")
    Term.(const run $ xml)

(* ------------------------------------------------------------------ *)
(* qtr optimize                                                        *)
(* ------------------------------------------------------------------ *)

let optimize_cmd =
  let sql =
    Arg.(
      required
      & opt (some string) None
      & info [ "sql" ] ~docv:"SQL" ~doc:"Query in the framework's SQL dialect.")
  in
  let disabled =
    Arg.(
      value
      & opt_all string []
      & info [ "disable" ] ~docv:"RULE" ~doc:"Disable a rule (repeatable).")
  in
  let run scale budget sql disabled trace json =
    with_telemetry trace @@ fun () ->
    if json then Obs.Metrics.set_enabled true;
    let fw = make_fw scale budget in
    let cat = Core.Framework.catalog fw in
    match Relalg.Sql_parser.parse cat sql with
    | Error e ->
      Printf.eprintf "%s\n" e;
      exit 1
    | Ok tree -> (
      if not json then Format.printf "Logical tree:@.%a@.@." Relalg.Logical.pp tree;
      match Core.Framework.optimize fw ~disabled tree with
      | Error e ->
        Printf.eprintf "optimize: %s\n" e;
        exit 1
      | Ok r ->
        let execution = Executor.Exec.run cat r.plan in
        if json then begin
          let string_set s =
            Obs.Json.List
              (List.map (fun n -> Obs.Json.String n) (Core.Framework.SSet.elements s))
          in
          let doc =
            Obs.Json.Obj
              [ ("sql", Obs.Json.String sql);
                ("cost", Obs.Json.Float r.cost);
                ("trees_explored", Obs.Json.Int r.trees_explored);
                ("budget_truncated", Obs.Json.Bool r.budget_truncated);
                ("ruleset", string_set r.exercised);
                ("impl_ruleset", string_set r.impl_exercised);
                ( "plan",
                  Obs.Json.String
                    (Format.asprintf "%a" Optimizer.Physical.pp r.plan) );
                ( "rows",
                  match execution with
                  | Ok res -> Obs.Json.Int (Executor.Resultset.row_count res)
                  | Error _ -> Obs.Json.Null );
                ( "execution_error",
                  match execution with
                  | Ok _ -> Obs.Json.Null
                  | Error e -> Obs.Json.String e );
                ("metrics", Obs.Report.metrics_json ()) ]
          in
          print_endline (Obs.Json.to_string doc)
        end
        else begin
          Format.printf "Plan (cost %.1f, %d trees explored):@.%a@.@." r.cost
            r.trees_explored Optimizer.Physical.pp r.plan;
          if r.budget_truncated then
            Format.printf
              "warning: exploration budget exhausted at %d trees — RuleSet and plan \
               may be incomplete; raise --budget@."
              r.trees_explored;
          Format.printf "RuleSet: %s@."
            (String.concat ", " (Core.Framework.SSet.elements r.exercised));
          match execution with
          | Ok res -> Format.printf "@.%a@." Executor.Resultset.pp res
          | Error e -> Printf.eprintf "execution: %s\n" e
        end)
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Parse, optimize and execute a SQL query")
    Term.(const run $ scale_arg $ budget_arg $ sql $ disabled $ trace_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr generate                                                        *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let rule =
    Arg.(value & opt (some string) None & info [ "rule" ] ~docv:"RULE" ~doc:"Target rule.")
  in
  let pair =
    Arg.(
      value
      & opt (some (pair ~sep:',' string string)) None
      & info [ "pair" ] ~docv:"R1,R2" ~doc:"Target rule pair.")
  in
  let extra =
    Arg.(
      value & opt int 0
      & info [ "extra-ops" ] ~docv:"N" ~doc:"Pad the query with N random operators.")
  in
  let relevant =
    Arg.(
      value & flag
      & info [ "relevant" ]
          ~doc:
            "Require the rule to be relevant (disabling it changes the chosen plan) — \
             the paper's §7 variant. Only with --rule.")
  in
  let run scale budget seed rule pair extra relevant trace =
    with_telemetry trace @@ fun () ->
    let fw = make_fw scale budget in
    let g = Prng.create seed in
    let result =
      match (rule, pair) with
      | Some r, None ->
        if relevant then
          Core.Query_gen.relevant_for_rule ~max_trials:100 ~extra_ops:extra fw g r
        else Core.Query_gen.for_rule ~max_trials:100 ~extra_ops:extra fw g r
      | None, Some (a, b) ->
        Core.Query_gen.for_pair ~max_trials:120 ~extra_ops:extra fw g (a, b)
      | _ ->
        Printf.eprintf "exactly one of --rule / --pair is required\n";
        exit 2
    in
    match result with
    | None ->
      Printf.eprintf "no query found within the trial budget\n";
      exit 1
    | Some { query; trials } ->
      let cat = Core.Framework.catalog fw in
      Format.printf "-- found in %d trial(s), %d operators@." trials
        (Relalg.Logical.size query);
      Format.printf "%s@.@." (Relalg.Sql_print.to_sql_pretty cat query);
      Format.printf "Logical tree:@.%a@." Relalg.Logical.pp query
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a SQL test case exercising a rule or rule pair")
    Term.(
      const run $ scale_arg $ budget_arg $ seed_arg $ rule $ pair $ extra $ relevant
      $ trace_arg)

(* ------------------------------------------------------------------ *)
(* qtr coverage                                                        *)
(* ------------------------------------------------------------------ *)

let n_rules_arg =
  Arg.(
    value & opt int 30
    & info [ "rules" ] ~docv:"N" ~doc:"Number of rules (prefix of the registry).")

let coverage_cmd =
  let run scale budget seed n jobs trace json =
    with_telemetry trace @@ fun () ->
    let pool = pool_of jobs in
    let fw = make_fw scale budget in
    let rules = first_rules n in
    (* Each rule is one task with its own seed and alias range, so the
       trial counts are independent of the job count. *)
    let rows =
      Par.Pool.map_list pool
        (fun (i, name) ->
          Relalg.Ident.set_fresh (i * 100_000);
          let g = Prng.create (seed + i) in
          let r = Core.Query_gen.random_for_rules ~max_trials:100 fw g [ name ] in
          let p = Core.Query_gen.for_rule ~max_trials:100 fw g name in
          (name, r, p))
        (List.mapi (fun i name -> (i, name)) rules)
    in
    if not json then begin
      Printf.printf "%-34s %8s %9s\n" "rule" "RANDOM" "PATTERN";
      List.iter
        (fun (name, r, p) ->
          let show cap = function
            | Some (x : Core.Query_gen.generated) -> string_of_int x.trials
            | None -> cap
          in
          Printf.printf "%-34s %8s %9s\n%!" name (show ">100" r) (show "FAIL" p))
        rows
    end;
    if json then begin
      let trials = function
        | Some (x : Core.Query_gen.generated) -> Obs.Json.Int x.trials
        | None -> Obs.Json.Null
      in
      let doc =
        Obs.Json.Obj
          [ ( "rules",
              Obs.Json.List
                (List.map
                   (fun (name, r, p) ->
                     Obs.Json.Obj
                       [ ("rule", Obs.Json.String name);
                         ("random_trials", trials r);
                         ("pattern_trials", trials p) ])
                   rows) );
            ("cap", Obs.Json.Int 100) ]
      in
      print_endline (Obs.Json.to_string doc)
    end
  in
  Cmd.v
    (Cmd.info "coverage" ~doc:"Rule-coverage trials, RANDOM vs PATTERN (Figure 8)")
    Term.(
      const run $ scale_arg $ budget_arg $ seed_arg $ n_rules_arg $ jobs_arg $ trace_arg
      $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr compress                                                        *)
(* ------------------------------------------------------------------ *)

let k_arg = Arg.(value & opt int 5 & info [ "k" ] ~docv:"K" ~doc:"Test-suite size per rule.")

let pairs_flag =
  Arg.(value & flag & info [ "pairs" ] ~doc:"Target rule pairs instead of singletons.")

let compress_cmd =
  let run c n k pairs incremental sim json =
    with_telemetry c.trace @@ fun () ->
    let rules = Option.map (fun r -> Optimizer.Rules.simulate_edit r) sim in
    let targets =
      let names = first_rules n in
      if pairs then Core.Suite.all_pairs names
      else List.map (fun r -> Core.Suite.Single r) names
    in
    let manifest =
      if incremental then
        Some (compress_desc ~seed:c.seed ~n ~k ~pairs ~budget:c.budget)
      else None
    in
    let { pool; suite; sess; _ }, algos =
      run_campaign c ?rules ?manifest ~targets ~k
        ~announce:(fun _ ->
          if not json then
            Printf.printf "generating suite: %d targets x k=%d...\n%!"
              (List.length targets) k)
        (fun { pool; fw; suite; ec; _ } ->
          if not json then
            Printf.printf "%d distinct queries (shortfalls %d)\n%!"
              (Array.length suite.entries)
              (List.length (Core.Suite.shortfall suite));
          (* TOPK first: it computes every covering edge, so its solve
             spills the whole matrix once and the others are served from
             the memo. Each solution is independent of the order. *)
          let topk = Core.Compress.topk ~pool ~ec fw suite in
          let mono = Core.Compress.topk ~exploit_monotonicity:true ~ec fw suite in
          let baseline = Core.Compress.baseline ~pool ~ec fw suite in
          let smc = Core.Compress.smc ~pool ~ec fw suite in
          [ ("BASELINE", baseline); ("SMC", smc); ("TOPK", topk); ("TOPK+mono", mono) ])
    in
    if json then begin
      let doc =
        Obs.Json.Obj
          ([ ("targets", Obs.Json.Int (List.length targets));
             ("k", Obs.Json.Int k);
             ("jobs", Obs.Json.Int (Par.Pool.jobs pool));
             ("distinct_queries", Obs.Json.Int (Array.length suite.entries));
             ("shortfalls", Obs.Json.Int (List.length (Core.Suite.shortfall suite))) ]
          @ (match sess with
            | Some s -> [ ("delta", delta_report_json s) ]
            | None -> [])
          @ [ ( "algorithms",
              Obs.Json.List
                (List.map
                   (fun (name, (sol : Core.Compress.solution)) ->
                     Obs.Json.Obj
                       [ ("name", Obs.Json.String name);
                         ("total_cost", Obs.Json.Float sol.total_cost);
                         ("invocations", Obs.Json.Int sol.invocations);
                         ( "under_covered",
                           Obs.Json.List
                             (List.map
                                (fun (t, d) ->
                                  Obs.Json.Obj
                                    [ ( "target",
                                        Obs.Json.String (Core.Suite.target_name t) );
                                      ("deficit", Obs.Json.Int d) ])
                                sol.under_covered) ) ])
                   algos) ) ])
      in
      print_endline (Obs.Json.to_string doc)
    end
    else begin
      Option.iter print_delta_summary sess;
      List.iter
        (fun (name, (sol : Core.Compress.solution)) ->
          Printf.printf "  %-10s cost %14.1f  invocations %5d\n%!" name sol.total_cost
            sol.invocations;
          List.iter
            (fun (t, d) ->
              Printf.printf "             under-covered: %s (missing %d of k=%d)\n%!"
                (Core.Suite.target_name t) d k)
            sol.under_covered)
        algos
    end
  in
  Cmd.v
    (Cmd.info "compress" ~doc:"Test-suite compression: BASELINE vs SMC vs TOPK")
    Term.(
      const run $ campaign_term $ n_rules_arg $ k_arg $ pairs_flag $ incremental_flag
      $ simulate_edit_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr validate                                                        *)
(* ------------------------------------------------------------------ *)

(* Single-rule targets: the injected fault's victim alone, else the
   first [n] registry rules. *)
let fault_targets inject n =
  List.map
    (fun r -> Core.Suite.Single r)
    (match inject with Some victim -> [ victim ] | None -> first_rules n)

let validate_cmd =
  let inject =
    inject_arg
      "Inject the buggy variant of RULE (one of the Faults registry) before \
       validating."
  in
  let run c n k inject incremental =
    with_telemetry c.trace @@ fun () ->
    let targets = fault_targets inject n in
    (* An injected fault changes the victim's fingerprint (its variant
       is a different DSL term), so an incremental validate after
       a clean one regenerates exactly the slices the fault can reach. *)
    let manifest =
      if incremental then
        Some
          (Printf.sprintf "validate|seed=%d|n=%d|k=%d|inject=%s|budget=%d" c.seed n k
             (Option.value inject ~default:"-")
             c.budget)
      else None
    in
    let { pool; fw; suite; sess; _ }, sol =
      run_campaign c ?rules:(Option.map Core.Faults.inject inject) ?manifest ~targets ~k
        ~announce:(fun _ ->
          Printf.printf "generating suite: %d rules x k=%d...\n%!" (List.length targets) k)
        (fun { pool; fw; suite; ec; _ } -> Core.Compress.topk ~pool ~ec fw suite)
    in
    Option.iter print_delta_summary sess;
    List.iter
      (fun (t, d) ->
        Printf.printf "warning: target %s under-covered (missing %d of k=%d)\n%!"
          (Core.Suite.target_name t) d k)
      sol.under_covered;
    let report = Core.Correctness.run ~pool fw suite sol in
    Format.printf "%a@." Core.Correctness.pp_report report;
    if report.bugs <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Execute a compressed correctness suite (optionally with a fault injected)")
    Term.(
      const run $ campaign_term $ n_rules_arg $ k_arg $ inject $ incremental_flag)

(* ------------------------------------------------------------------ *)
(* qtr delta                                                           *)
(* ------------------------------------------------------------------ *)

let delta_cmd =
  let run scale budget seed n k pairs sim cache_dir trace json =
    with_telemetry trace @@ fun () ->
    let dir =
      match cache_dir with
      | Some d -> d
      | None ->
        Printf.eprintf "qtr: delta requires --cache-dir\n";
        exit 1
    in
    let rules_override = Option.map (fun r -> Optimizer.Rules.simulate_edit r) sim in
    let fw = make_fw ?rules:rules_override scale budget in
    let dc = Diskcache.create ~dir () in
    let sess =
      Core.Incr.start ~dc ~desc:(compress_desc ~seed ~n ~k ~pairs ~budget) fw
    in
    let p = Core.Incr.preview sess in
    if json then begin
      let doc =
        Obs.Json.Obj
          [ ("manifest_found", Obs.Json.Bool p.manifest_found);
            ("rules_total", Obs.Json.Int p.rules_total);
            ("rules_changed", rules_changed_json p.rules_changed);
            ("full_rebuild", Obs.Json.Bool p.full_rebuild);
            ("targets_reusable", Obs.Json.Int p.targets_reusable);
            ("targets_total", Obs.Json.Int p.targets_total);
            ("edges_reusable", Obs.Json.Int p.edges_reusable);
            ("edges_total", Obs.Json.Int p.edges_total) ]
      in
      print_endline (Obs.Json.to_string doc)
    end
    else if not p.manifest_found then
      print_endline
        "no manifest for this configuration — the next --incremental run rebuilds \
         cold and writes one"
    else begin
      Printf.printf "manifest: %d rules recorded\n" p.rules_total;
      (match p.rules_changed with
      | [] -> print_endline "registry unchanged: every recorded artifact is reusable"
      | changed ->
        List.iter
          (fun (name, change) -> Printf.printf "  %-34s %s\n" name change)
          changed);
      Printf.printf
        "reusable now: %d/%d suite targets, %d/%d edge-cost cells%s\n"
        p.targets_reusable p.targets_total p.edges_reusable p.edges_total
        (if p.full_rebuild then
           " (pattern change or new rule forces a full rebuild)"
         else "")
    end
  in
  Cmd.v
    (Cmd.info "delta"
       ~doc:
         "Diff the live rule-content fingerprints against the --cache-dir manifest \
          and report what an --incremental run would reuse, without running anything")
    Term.(
      const run $ scale_arg $ budget_arg $ seed_arg $ n_rules_arg $ k_arg $ pairs_flag
      $ simulate_edit_arg $ cache_dir_arg $ trace_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr reduce                                                          *)
(* ------------------------------------------------------------------ *)

let reduce_cmd =
  let inject = inject_arg "Inject the buggy variant of RULE (one of the Faults registry)." in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Persist every minimized reproducer (SQL + JSON metadata) into $(docv), \
             one case per bug signature; re-execute later with $(b,qtr replay).")
  in
  let max_checks =
    Arg.(
      value & opt int 400
      & info [ "max-checks" ] ~docv:"N"
          ~doc:"Oracle-evaluation budget per bug during delta reduction.")
  in
  let run c n k inject corpus max_checks json =
    with_telemetry c.trace @@ fun () ->
    if json then Obs.Metrics.set_enabled true;
    let targets = fault_targets inject n in
    let { pool; fw; suite; _ }, sol =
      run_campaign c ?rules:(Option.map Core.Faults.inject inject) ~targets ~k
        ~announce:(fun _ ->
          if not json then
            Printf.printf "generating suite: %d rules x k=%d...\n%!"
              (List.length targets) k)
        (fun { pool; fw; suite; ec; _ } -> Core.Compress.topk ~pool ~ec fw suite)
    in
    let report = Core.Correctness.run ~pool fw suite sol in
    if not json then Format.printf "%a@." Core.Correctness.pp_report report;
    let triaged = Triage.Pipeline.triage ~max_checks ~pool fw report in
    (match corpus with
    | None -> ()
    | Some dir -> (
      match
        Triage.Pipeline.save_corpus ~dir ~catalog:(Triage.Corpus.Tpch c.scale)
          ~budget:c.budget ?fault:inject (Core.Framework.catalog fw) triaged
      with
      | Ok paths ->
        if not json then
          Printf.printf "wrote %d corpus case(s) to %s\n%!" (List.length paths) dir
      | Error e ->
        Printf.eprintf "%s\n" e;
        exit 1));
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [ ("bugs", Obs.Json.Int (List.length report.bugs));
                ("triage", Triage.Pipeline.report_json triaged);
                ("metrics", Obs.Report.metrics_json ()) ]))
    else Format.printf "%a@." Triage.Pipeline.pp_report triaged
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:
         "Validate, then delta-reduce every bug to a minimal reproducer, dedup by \
          signature, and optionally persist the regression corpus")
    Term.(
      const run $ campaign_term $ n_rules_arg $ k_arg $ inject $ corpus $ max_checks
      $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr replay                                                          *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let corpus =
    Arg.(
      required
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Corpus directory written by $(b,qtr reduce).")
  in
  let reinject =
    Arg.(
      value & flag
      & info [ "reinject" ]
          ~doc:
            "Re-inject the fault recorded in each case's metadata before replaying — \
             the corpus self-check: every case must reproduce its divergence, and the \
             exit status is non-zero if any does not. Without this flag the current \
             rule registry is used and any $(i,reproduced) divergence (a resurfaced \
             regression) makes the exit status non-zero.")
  in
  let budget_override =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"TREES"
          ~doc:"Override the per-case recorded exploration budget.")
  in
  let run corpus reinject budget jobs trace json =
    with_telemetry trace @@ fun () ->
    let pool = pool_of jobs in
    match Triage.Pipeline.replay ~reinject ?budget ~pool ~dir:corpus () with
    | Error e ->
      Printf.eprintf "%s\n" e;
      exit 2
    | Ok results ->
      let reproduced =
        List.length
          (List.filter
             (fun (r : Triage.Pipeline.replayed) ->
               match r.outcome with Triage.Pipeline.Reproduced _ -> true | _ -> false)
             results)
      in
      if json then print_endline (Obs.Json.to_string (Triage.Pipeline.replay_json results))
      else begin
        List.iter
          (fun r -> Format.printf "%a@." Triage.Pipeline.pp_replayed r)
          results;
        Printf.printf "%d/%d case(s) reproduced their divergence\n%!" reproduced
          (List.length results)
      end;
      (* Differential (discovery) cases carry their own right-hand side:
         the divergence is intrinsic to the query pair, not to the rule
         registry, so they must reproduce in BOTH modes — a clean one
         means the counterexample went stale. Rule-regression cases keep
         the original polarity: reproduce under --reinject, stay clean
         against the current registry. *)
      let differential, regression =
        List.partition
          (fun (r : Triage.Pipeline.replayed) -> r.case.meta.rhs_sql <> None)
          results
      in
      let reproduced_of l =
        List.length
          (List.filter
             (fun (r : Triage.Pipeline.replayed) ->
               match r.outcome with Triage.Pipeline.Reproduced _ -> true | _ -> false)
             l)
      in
      if reinject then begin
        if reproduced < List.length results then exit 1
      end
      else if
        reproduced_of regression > 0
        || reproduced_of differential < List.length differential
      then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a persisted regression corpus from disk (regression gate by \
          default; corpus self-check with --reinject)")
    Term.(const run $ corpus $ reinject $ budget_override $ jobs_arg $ trace_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr stats                                                           *)
(* ------------------------------------------------------------------ *)

let stats_cmd =
  let queries_arg =
    Arg.(
      value & opt int 25
      & info [ "queries" ] ~docv:"N"
          ~doc:"Number of stochastic TPC-H queries to optimize for the sample.")
  in
  let sort_arg =
    let options =
      [ ("attempts", `Attempts); ("rewrites", `Rewrites); ("fired", `Fired);
        ("rate", `Rate); ("mean", `Mean); ("total", `Total) ]
    in
    Arg.(
      value
      & opt (enum options) `Attempts
      & info [ "sort" ] ~docv:"COLUMN"
          ~doc:"Sort column: $(b,attempts), $(b,rewrites), $(b,fired), $(b,rate), \
                $(b,mean) (latency) or $(b,total) (time).")
  in
  let run c queries sort json =
    with_telemetry c.trace @@ fun () ->
    Obs.Metrics.set_enabled true;
    let pool = pool_of c.jobs in
    let fw = make_fw c.scale c.budget in
    let cat = Core.Framework.catalog fw in
    let dc_opt = setup_cache c.cache_dir cat in
    (* A parallel run additionally populates the pool-utilization lines
       below. *)
    let outcomes = stochastic_workload ~pool ~seed:c.seed ~queries fw Fun.id in
    let exhausted = ref 0 in
    let plans = ref [] in
    Array.iter
      (function
        | Ok r ->
          plans := r.Optimizer.Engine.plan :: !plans;
          if r.Optimizer.Engine.budget_truncated then incr exhausted
        | Error _ -> ())
      outcomes;
    (* Execute the winning plans twice: the second pass is served by the
       plan-fingerprint result cache, so the executor line below reports
       a live compile latency, throughput, and hit rate. *)
    List.iter (fun p -> ignore (Executor.Cache.run ~site:"stats" cat p)) (List.rev !plans);
    List.iter (fun p -> ignore (Executor.Cache.run ~site:"stats" cat p)) (List.rev !plans);
    if json then print_endline (Obs.Json.to_string (Obs.Report.metrics_json ()))
    else begin
      let hist_of rule = Obs.Metrics.histogram ~label:rule "optimizer.rule.match_ns" in
      let rows =
        List.map
          (fun (rule, values) ->
            match values with
            | [ a; r; f ] ->
              let attempts = counter_cell a
              and rewrites = counter_cell r
              and fired = counter_cell f in
              let h = hist_of rule in
              let snap = Obs.Metrics.hist_snapshot h in
              let rate =
                if attempts = 0 then 0.0
                else 100.0 *. float_of_int rewrites /. float_of_int attempts
              in
              ( rule, attempts, rewrites, fired, rate,
                Obs.Clock.ns_to_us (Obs.Metrics.hist_mean h),
                Obs.Clock.ns_to_us (Obs.Metrics.hist_quantile h 0.95),
                Obs.Clock.ns_to_ms snap.sum )
            | _ -> (rule, 0, 0, 0, 0.0, 0.0, 0.0, 0.0))
          (Obs.Report.label_table
             [ "optimizer.rule.attempts"; "optimizer.rule.rewrites";
               "optimizer.rule.fired" ])
      in
      let key (_, a, r, fired, rate, mean, _, total) =
        match sort with
        | `Attempts -> float_of_int a
        | `Rewrites -> float_of_int r
        | `Fired -> float_of_int fired
        | `Rate -> rate
        | `Mean -> mean
        | `Total -> total
      in
      let rows = List.sort (fun x y -> compare (key y) (key x)) rows in
      Printf.printf "%d stochastic TPC-H queries optimized (scale %g, budget %d)\n\n"
        queries c.scale c.budget;
      Printf.printf "%-34s %9s %9s %9s %6s %9s %9s %9s\n" "rule" "attempts"
        "rewrites" "fired" "hit%" "mean_us" "p95_us" "total_ms";
      print_endline (String.make 100 '-');
      List.iter
        (fun (rule, a, r, f, rate, mean, p95, total) ->
          Printf.printf "%-34s %9d %9d %9d %5.1f%% %9.2f %9.2f %9.2f\n" rule a r f
            rate mean p95 total)
        rows;
      print_endline (String.make 100 '-');
      let hits = global_counter "optimizer.memo.hits" in
      let misses = global_counter "optimizer.memo.misses" in
      let rate h m =
        if h + m = 0 then 0.0 else 100.0 *. float_of_int h /. float_of_int (h + m)
      in
      let rw_hits = global_counter "optimizer.rewrite_memo.hits" in
      let rw_misses = global_counter "optimizer.rewrite_memo.misses" in
      (* The hash-cons table, the property memo and the rewrite memo
         are domain-local: past --jobs 1 their sizes are the calling
         domain's alone, and depend on how the pool scheduled the
         queries. The hit counts are process-wide. *)
      let own = if Par.Pool.jobs pool > 1 then " (calling domain)" else "" in
      Printf.printf
        "trees explored %d | plan memo hit rate %.1f%% (%d/%d) | budget exhausted \
         on %d/%d queries | optimizer invocations %d\n"
        (global_counter "optimizer.explore.trees")
        (rate hits misses) hits (hits + misses) !exhausted queries
        (Core.Framework.invocations fw);
      Printf.printf
        "hashcons%s: %d live nodes (%d interned, %d reused) | property memo%s \
         %d entries | rewrite memo%s %d entries, hit rate %.1f%% (%d/%d) | %d \
         explorations reused\n"
        own
        (Relalg.Hashcons.live_nodes ())
        (Relalg.Hashcons.misses ())
        (Relalg.Hashcons.hits ())
        own
        (Relalg.Props.memo_entries ())
        own
        (Optimizer.Engine.Reference.memo_entries ())
        (rate rw_hits rw_misses) rw_hits (rw_hits + rw_misses)
        (global_counter "optimizer.explore.reused");
      let ex_hits = global_counter "executor.result_cache.hits" in
      let ex_misses = global_counter "executor.result_cache.misses" in
      (* Mean throughput over every (non-cached) execution, not the
         last run's gauge — a final empty result would read as 0. *)
      let exec_ns =
        (Obs.Metrics.hist_snapshot
           (Obs.Metrics.histogram "executor.exec_ns")).sum
      in
      let rows_per_sec =
        if exec_ns <= 0.0 then 0.0
        else float_of_int (global_counter "executor.rows") *. 1e9 /. exec_ns
      in
      Printf.printf
        "executor: mean plan compile %.2f us | %.0f result rows/s | result \
         cache hit rate %.1f%% (%d/%d)\n"
        (Obs.Clock.ns_to_us
           (Obs.Metrics.hist_mean (Obs.Metrics.histogram "executor.compile_ns")))
        rows_per_sec (rate ex_hits ex_misses) ex_hits (ex_hits + ex_misses);
      print_cache_attribution ();
      print_disk_cache ();
      print_pool_utilization ();
      (* Rule-content identity: what incremental maintenance diffs. The
         drift column compares against the most recently written
         manifest in the cache directory, whatever configuration wrote
         it — registry drift is configuration-independent. *)
      let infos = Core.Incr.rules_info fw in
      let manifest =
        Option.bind dc_opt (fun dc ->
            match List.rev (Manifest.index dc) with
            | (key, _) :: _ -> Manifest.load dc ~key
            | [] -> None)
      in
      let changes =
        match manifest with Some m -> Manifest.diff m ~rules:infos | None -> []
      in
      Printf.printf "\nrule registry (%d rules)%s\n" (List.length infos)
        (match manifest with
        | Some _ -> " vs latest cache manifest:"
        | None -> " (no manifest in cache; drift unknown):");
      Printf.printf "%-34s %-14s %s\n" "rule" "fingerprint" "drift";
      List.iter
        (fun (ri : Manifest.rule_info) ->
          Printf.printf "%-34s %-14s %s\n" ri.name
            (String.sub ri.fingerprint 0 12)
            (match List.assoc_opt ri.name changes with
            | Some c -> Manifest.change_to_string c
            | None -> if manifest = None then "-" else "no"))
        infos;
      List.iter
        (fun (name, c) ->
          if c = Manifest.Removed then
            Printf.printf "%-34s %-14s removed\n" name "-")
        changes
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Optimize a stochastic TPC-H workload with metrics on and print a sorted \
          per-rule attempt/success/latency table")
    Term.(const run $ campaign_term $ queries_arg $ sort_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr profile                                                         *)
(* ------------------------------------------------------------------ *)

let profile_cmd =
  let queries_arg =
    Arg.(
      value & opt int 25
      & info [ "queries" ] ~docv:"N"
          ~doc:"Number of stochastic TPC-H queries to optimize and execute.")
  in
  let folded =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Also write folded call stacks (one $(i,path;to;span self_us) line per \
             distinct span path) to $(docv) — the input format of flamegraph.pl and \
             speedscope.")
  in
  let by_domain =
    Arg.(
      value & flag
      & info [ "by-domain" ] ~doc:"Also print a per-domain breakdown of the profile.")
  in
  let run scale budget seed queries jobs folded by_domain trace json =
    with_telemetry trace @@ fun () ->
    Obs.Metrics.set_enabled true;
    Obs.Profile.enable ();
    (* Opened before the workload runs, so a bad path fails fast. *)
    let folded_oc =
      Option.map
        (fun path ->
          try (path, open_out path)
          with Sys_error e ->
            Printf.eprintf "cannot open folded stacks file: %s\n" e;
            exit 1)
        folded
    in
    let pool = pool_of jobs in
    let fw = make_fw scale budget in
    let cat = Core.Framework.catalog fw in
    let outcomes =
      stochastic_workload ~pool ~seed ~queries fw (function
        | Ok r -> Result.is_ok (Executor.Cache.run ~site:"profile" cat r.plan)
        | Error _ -> false)
    in
    let ok = Array.fold_left (fun n b -> if b then n + 1 else n) 0 outcomes in
    Option.iter
      (fun (path, oc) ->
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Obs.Profile.write_folded oc);
        if not json then Printf.printf "folded stacks written to %s\n" path)
      folded_oc;
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [ ("queries", Obs.Json.Int queries);
                ("executed_ok", Obs.Json.Int ok);
                ("jobs", Obs.Json.Int (Par.Pool.jobs pool));
                ("profile", Obs.Profile.to_json ());
                ("pool", pool_utilization_json ());
                ("result_cache", cache_attribution_json ()) ]))
    else begin
      Printf.printf
        "%d stochastic TPC-H queries optimized + executed (%d ok, scale %g, budget \
         %d, jobs %d)\n\n"
        queries ok scale budget (Par.Pool.jobs pool);
      Format.printf "%a@." Obs.Profile.pp ();
      if by_domain then
        List.iter
          (fun (dom, rows) ->
            Printf.printf "\ndomain %d:\n" dom;
            List.iter
              (fun (r : Obs.Profile.row) ->
                Printf.printf "  %-40s %7dx self %9.2fms total %9.2fms\n" r.name
                  r.count (r.self_ns /. 1e6) (r.total_ns /. 1e6))
              rows)
          (Obs.Profile.rows_by_domain ());
      print_pool_utilization ();
      print_cache_attribution ()
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Optimize a stochastic workload with the in-process span profiler enabled \
          and print self/total time, call counts and percentiles per span")
    Term.(
      const run $ scale_arg $ budget_arg $ seed_arg $ queries_arg $ jobs_arg $ folded
      $ by_domain $ trace_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr report                                                          *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let inject =
    inject_arg
      "Inject the buggy variant of RULE (one of the Faults registry) so the \
       validation and triage sections are exercised."
  in
  let run c n k inject json =
    with_telemetry c.trace @@ fun () ->
    Obs.Metrics.set_enabled true;
    Obs.Profile.enable ();
    let t0 = Obs.Clock.now_ns () in
    let targets = List.map (fun r -> Core.Suite.Single r) (first_rules n) in
    let { pool; fw; suite; _ }, (baseline, sol) =
      run_campaign c ?rules:(Option.map Core.Faults.inject inject) ~targets ~k
        ~announce:(fun pool ->
          if not json then
            Printf.printf "campaign: %d targets x k=%d, scale %g, budget %d, jobs %d%s\n%!"
              (List.length targets) k c.scale c.budget (Par.Pool.jobs pool)
              (match inject with None -> "" | Some r -> ", fault " ^ r))
        (fun { pool; fw; suite; ec; _ } ->
          (* A let, not a tuple, so TOPK runs first: it computes every
             covering edge, so the matrix is spilled once. *)
          let sol = Core.Compress.topk ~pool ~ec fw suite in
          (Core.Compress.baseline ~pool ~ec fw suite, sol))
    in
    let shortfalls = Core.Suite.shortfall suite in
    let correctness = Core.Correctness.run ~pool fw suite sol in
    let triaged = Triage.Pipeline.triage ~pool fw correctness in
    let wall_s = Obs.Clock.ns_between t0 (Obs.Clock.now_ns ()) /. 1e9 in
    let covered = List.length targets - List.length shortfalls in
    let ratio =
      if baseline.total_cost <= 0.0 then 1.0 else sol.total_cost /. baseline.total_cost
    in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [ ("targets", Obs.Json.Int (List.length targets));
                ("k", Obs.Json.Int k);
                ("jobs", Obs.Json.Int (Par.Pool.jobs pool));
                ( "fault",
                  match inject with
                  | None -> Obs.Json.Null
                  | Some r -> Obs.Json.String r );
                ("wall_seconds", Obs.Json.Float wall_s);
                ( "coverage",
                  Obs.Json.Obj
                    [ ("fully_covered", Obs.Json.Int covered);
                      ("shortfalls", Obs.Json.Int (List.length shortfalls));
                      ( "distinct_queries",
                        Obs.Json.Int (Array.length suite.entries) ) ] );
                ( "compression",
                  Obs.Json.Obj
                    [ ("baseline_cost", Obs.Json.Float baseline.total_cost);
                      ("topk_cost", Obs.Json.Float sol.total_cost);
                      ("cost_ratio", Obs.Json.Float ratio);
                      ("invocations", Obs.Json.Int sol.invocations);
                      ( "under_covered",
                        Obs.Json.Int (List.length sol.under_covered) ) ] );
                ( "validation",
                  Obs.Json.Obj
                    [ ("pairs_checked", Obs.Json.Int correctness.pairs_checked);
                      ("executions", Obs.Json.Int correctness.executions);
                      ( "skipped_identical",
                        Obs.Json.Int correctness.skipped_identical );
                      ("bugs", Obs.Json.Int (List.length correctness.bugs));
                      ("errors", Obs.Json.Int (List.length correctness.errors)) ] );
                ( "triage",
                  Obs.Json.Obj
                    [ ( "distinct_signatures",
                        Obs.Json.Int (List.length triaged.cases) );
                      ("duplicates", Obs.Json.Int triaged.duplicates);
                      ("irreducible", Obs.Json.Int (List.length triaged.irreducible));
                      ("oracle_checks", Obs.Json.Int triaged.checks);
                      ("executions", Obs.Json.Int triaged.executions) ] );
                ("profile", Obs.Profile.to_json ());
                ("pool", pool_utilization_json ());
                ("result_cache", cache_attribution_json ());
                ("disk_cache", disk_cache_json ());
                ("metrics", Obs.Report.metrics_json ()) ]))
    else begin
      Printf.printf
        "coverage:    %d/%d targets fully covered at k=%d, %d distinct queries\n"
        covered (List.length targets) k (Array.length suite.entries);
      Printf.printf
        "compression: TOPK cost %.1f vs BASELINE %.1f (x%.2f) | %d optimizer \
         invocations | %d under-covered\n"
        sol.total_cost baseline.total_cost ratio sol.invocations
        (List.length sol.under_covered);
      Printf.printf
        "validation:  %d pairs checked | %d executed | %d skipped (identical plans) \
         | %d bug(s) | %d error(s)\n"
        correctness.pairs_checked correctness.executions correctness.skipped_identical
        (List.length correctness.bugs)
        (List.length correctness.errors);
      Printf.printf
        "triage:      %d distinct signature(s) | %d duplicate(s) | %d irreducible | \
         %d oracle checks\n\n"
        (List.length triaged.cases) triaged.duplicates
        (List.length triaged.irreducible)
        triaged.checks;
      Format.printf "%a@." Obs.Profile.pp ();
      print_pool_utilization ();
      print_cache_attribution ();
      print_disk_cache ();
      Printf.printf "wall: %.2fs\n" wall_s
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "One-shot campaign summary: generate, compress, validate and triage, then \
          merge profile, pool utilization, cache attribution, coverage, compression \
          quality and triage counts into one text or JSON report")
    Term.(const run $ campaign_term $ n_rules_arg $ k_arg $ inject $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr bench-diff                                                      *)
(* ------------------------------------------------------------------ *)

let benchdiff_cmd =
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD" ~doc:"Baseline bench --json result file.")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Candidate bench --json result file.")
  in
  let slack_arg =
    Arg.(
      value & opt float 1.0
      & info [ "slack" ] ~docv:"X"
          ~doc:
            "Multiply every numeric threshold by $(docv); correctness flags stay \
             zero-tolerance. CI compares runs from different machines with a large \
             slack so only catastrophic numeric changes (or any flag flip) fire.")
  in
  let load path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Obs.Json.of_string s with
    | Ok doc -> doc
    | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 2
  in
  let run old_path new_path slack json =
    let old_doc = load old_path in
    let new_doc = load new_path in
    let findings = Obs.Benchcmp.compare_results ~slack ~old_doc ~new_doc () in
    let regressions = Obs.Benchcmp.regressions findings in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [ ("old", Obs.Json.String old_path);
                ("new", Obs.Json.String new_path);
                ("slack", Obs.Json.Float slack);
                ("findings", Obs.Benchcmp.findings_json findings);
                ("regressions", Obs.Json.Int (List.length regressions)) ]))
    else begin
      List.iter (fun f -> Format.printf "%a@." Obs.Benchcmp.pp_finding f) findings;
      let count st =
        List.length
          (List.filter (fun (f : Obs.Benchcmp.finding) -> f.status = st) findings)
      in
      Printf.printf
        "%d metric(s) compared: %d passed, %d improved, %d new, %d regressed\n"
        (List.length findings) (count Obs.Benchcmp.Passed)
        (count Obs.Benchcmp.Improved)
        (count Obs.Benchcmp.Missing_old)
        (List.length regressions)
    end;
    if regressions <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two bench --json result files metric by metric against regression \
          thresholds; exit 1 when any gated metric regressed")
    Term.(const run $ old_arg $ new_arg $ slack_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr discover                                                        *)
(* ------------------------------------------------------------------ *)

let discover_cmd =
  let alphabet_arg =
    let parse s =
      match Discovery.Template.alphabet_of_string s with
      | Ok a -> Ok a
      | Error e -> Error (`Msg e)
    in
    let print fmt a = Format.fprintf fmt "%s" (Discovery.Template.alphabet_name a) in
    Arg.(
      value
      & opt (conv (parse, print)) Discovery.Template.Setops
      & info [ "alphabet" ] ~docv:"SET"
          ~doc:
            "Operator alphabet for template enumeration: $(b,basic) (filter, join, \
             distinct), $(b,setops) (+ union all, union) or $(b,full) (+ intersect, \
             except).")
  in
  let max_nodes_arg =
    Arg.(
      value & opt int 2
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:"Per-side operator budget for candidate templates.")
  in
  let trials_arg =
    Arg.(
      value & opt int Discovery.Validate.default_params.trials
      & info [ "trials" ] ~docv:"N"
          ~doc:"Differential instantiation attempts per candidate.")
  in
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K"
          ~doc:"Survivors promoted into optimizer rules and pushed through the \
                generate/compress/validate pipeline.")
  in
  let k_arg =
    Arg.(
      value & opt int 2
      & info [ "k" ] ~docv:"K"
          ~doc:"Queries per target in the ranking and promotion suites.")
  in
  let rank_budget_arg =
    Arg.(
      value & opt int 128
      & info [ "rank-budget" ] ~docv:"TREES"
          ~doc:
            "Exploration budget for the ranking/promotion frameworks (their \
             registries carry every surviving candidate).")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Persist minimized counterexamples of refuted candidates there \
             (replayable with $(b,qtr replay)).")
  in
  let run scale seed alphabet max_nodes trials top k rank_budget corpus jobs cache_dir
      trace json =
    with_telemetry trace @@ fun () ->
    (* Firing counters feed the ranker, so metrics are always on here
       (same stance as `qtr stats`). *)
    Obs.Metrics.set_enabled true;
    let pool = pool_of jobs in
    let config =
      { Discovery.Driver.default_config with
        alphabet;
        max_nodes;
        params = { Discovery.Validate.default_params with seed; trials };
        suite_k = k;
        top_k = top;
        rank_budget;
        corpus_dir = corpus;
        catalog = Triage.Corpus.Tpch scale }
    in
    let disk =
      setup_cache cache_dir (Triage.Corpus.catalog_of_spec config.catalog)
    in
    let report = Discovery.Driver.run ~pool ?disk config in
    if json then
      print_endline (Obs.Json.to_string (Discovery.Driver.report_json report))
    else Format.printf "%a@." Discovery.Driver.pp_report report;
    if report.candidates = 0 then begin
      (* An empty run discovers nothing and validates nothing; succeeding
         silently would let a mis-configured CI invocation pass vacuously. *)
      Format.eprintf
        "qtr discover: the %s alphabet produced no candidate templates at \
         --max-nodes %d; raise --max-nodes or pick a larger alphabet@."
        (Discovery.Template.alphabet_name alphabet)
        max_nodes;
      exit 2
    end;
    if report.seeded_survived <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "discover"
       ~doc:
         "Mine candidate rewrite rules from bounded templates, refute the unsound \
          ones differentially (counterexamples land in the corpus), rank the \
          survivors, and promote the top-K through the framework's own pipeline")
    Term.(
      const run $ scale_arg $ seed_arg $ alphabet_arg $ max_nodes_arg $ trials_arg
      $ top_arg $ k_arg $ rank_budget_arg $ corpus_arg $ jobs_arg $ cache_dir_arg
      $ trace_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr verify-rules                                                    *)
(* ------------------------------------------------------------------ *)

let verify_rules_cmd =
  let include_discovered_arg =
    Arg.(
      value & flag
      & info [ "include-discovered" ]
          ~doc:
            "Also verify the discovery reference sets: every expressible \
             known-sound template must verify sound and every seeded-unsound \
             template must be refuted, or the command fails.")
  in
  let max_valuations_arg =
    Arg.(
      value
      & opt int (1 lsl 18)
      & info [ "max-valuations" ] ~docv:"N"
          ~doc:
            "Predicate-valuation budget per symbolic instance; rules exceeding \
             it come back $(b,unknown) rather than burning unbounded time.")
  in
  (* One verification work item. [expect_refuted] flips the failure
     condition for the seeded-unsound reference set. *)
  let run include_discovered max_valuations jobs trace json =
    with_telemetry trace @@ fun () ->
    let items =
      List.map (fun (name, r) -> ("registered", name, false, r)) Optimizer.Rules.dsl_rules
      @ (if not include_discovered then []
         else
           List.map
             (fun (n, c) ->
               ("known-sound", n, false, Discovery.Template.to_rdsl ~name:n c))
             Discovery.Template.known_sound
           @ List.map
               (fun (n, c) ->
                 ("seeded-unsound", n, true, Discovery.Template.to_rdsl ~name:n c))
               Discovery.Template.seeded_unsound)
    in
    let pool = pool_of jobs in
    let t0 = Unix.gettimeofday () in
    (* [map_array] merges in task order, so both renderings are
       independent of --jobs (the JSON byte-identically: it carries no
       timings). *)
    let verdicts =
      Par.Pool.map_array pool
        (fun (_, _, _, r) -> Dsl.Rdsl.Verify.verify ~max_valuations r)
        (Array.of_list items)
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let rows = List.combine items (Array.to_list verdicts) in
    let status_of = function
      | Dsl.Rdsl.Verify.Sound_bounded -> "sound"
      | Dsl.Rdsl.Verify.Refuted _ -> "refuted"
      | Dsl.Rdsl.Verify.Unknown _ -> "unknown"
    in
    let failed ((_, _, expect_refuted, _), v) =
      match v with
      | Dsl.Rdsl.Verify.Refuted _ -> not expect_refuted
      | _ -> expect_refuted
    in
    let failures = List.filter failed rows in
    let count s =
      List.length (List.filter (fun (_, v) -> String.equal (status_of v) s) rows)
    in
    if json then begin
      let item_json (((group, name, expect_refuted, _), v) as row) =
        Obs.Json.Obj
          ([ ("group", Obs.Json.String group);
             ("name", Obs.Json.String name);
             ("status", Obs.Json.String (status_of v));
             ("expect_refuted", Obs.Json.Bool expect_refuted);
             ("failed", Obs.Json.Bool (failed row)) ]
          @
          match v with
          | Dsl.Rdsl.Verify.Refuted c ->
            [ ( "counterexample",
                Obs.Json.Obj
                  [ ( "instances",
                      Obs.Json.Obj
                        (List.map (fun (r, i) -> (r, Obs.Json.String i)) c.instances)
                    );
                    ( "valuation",
                      Obs.Json.List
                        (List.map (fun s -> Obs.Json.String s) c.valuation) );
                    ("lhs_rows", Obs.Json.String c.lhs_rows);
                    ("rhs_rows", Obs.Json.String c.rhs_rows) ] ) ]
          | Dsl.Rdsl.Verify.Unknown m -> [ ("reason", Obs.Json.String m) ]
          | Dsl.Rdsl.Verify.Sound_bounded -> [])
      in
      let doc =
        Obs.Json.Obj
          [ ("rules", Obs.Json.List (List.map item_json rows));
            ( "summary",
              Obs.Json.Obj
                [ ("sound", Obs.Json.Int (count "sound"));
                  ("refuted", Obs.Json.Int (count "refuted"));
                  ("unknown", Obs.Json.Int (count "unknown"));
                  ("failures", Obs.Json.Int (List.length failures)) ] ) ]
      in
      print_endline (Obs.Json.to_string doc)
    end
    else begin
      List.iter
        (fun (((group, name, _, _), v) as row) ->
          Printf.printf "%-15s %-34s %s%s\n" group name (status_of v)
            (if failed row then "  <-- FAIL" else "");
          match v with
          | Dsl.Rdsl.Verify.Refuted _ when failed row ->
            Printf.printf "%17s%s\n" "" (Dsl.Rdsl.Verify.verdict_to_string v)
          | Dsl.Rdsl.Verify.Unknown m -> Printf.printf "%17s(%s)\n" "" m
          | _ -> ())
        rows;
      Printf.printf "%d sound, %d refuted, %d unknown (%.2fs); %d failure(s)\n"
        (count "sound") (count "refuted") (count "unknown") elapsed
        (List.length failures)
    end;
    if failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "verify-rules"
       ~doc:
         "Check every registered rule's DSL term against the bounded symbolic \
          oracle (small-scope set-theoretic semantics over distinguished rows and \
          NULLs, no executor). Fails if any registered rule is refuted")
    Term.(
      const run $ include_discovered_arg $ max_valuations_arg $ jobs_arg $ trace_arg
      $ json_arg)

let () =
  let doc = "testing framework for query transformation rules (SIGMOD'09 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "qtr" ~version:"1.0.0" ~doc)
          [ rules_cmd; optimize_cmd; generate_cmd; coverage_cmd; compress_cmd;
            validate_cmd; delta_cmd; reduce_cmd; replay_cmd; stats_cmd; profile_cmd;
            report_cmd; discover_cmd; verify_rules_cmd; benchdiff_cmd ]))
