module T = Template
module V = Validate
module L = Relalg.Logical
module F = Core.Framework
module Suite = Core.Suite
module J = Obs.Json

type config = {
  alphabet : T.alphabet;
  max_nodes : int;
  params : V.params;
  suite_k : int;
  top_k : int;
  max_saved : int;
  rank_budget : int;
  corpus_dir : string option;
  catalog : Triage.Corpus.catalog_spec;
}

(* Exploration options for the ranking/promotion frameworks. The
   registry holds every survivor on top of the stock rules, so the
   default 1200-tree budget would make each suite-generation probe
   enormous; candidate patterns sit at the root of generated queries and
   fire within a few expansions, so a small closure is enough. *)
let rank_options config =
  { Optimizer.Engine.default_options with
    max_trees = config.rank_budget;
    max_growth = 4 }

let default_config =
  { alphabet = T.Setops;
    max_nodes = 2;
    params = V.default_params;
    suite_k = 2;
    top_k = 5;
    max_saved = 4;
    rank_budget = 128;
    corpus_dir = None;
    catalog = Triage.Corpus.Tpch 0.002 }

type scored = {
  rule_name : string;
  display : string;
  saving : float;
  fired : int;
  shrink : int;
  clean_instances : int;
  rediscovered : string option;
  score : float;
}

type saved_case = {
  case_id : string;
  case_rule : string;
  case_display : string;
  kind : string;
  seeded : string option;
  nodes_before : int;
  nodes_after : int;
  path : string option;
}

type promotion = {
  attempted : string list;
  promoted : string list;
  demoted : (string * int) list;
  pairs_checked : int;
  plan_executions : int;
  promo_suite_queries : int;
}

type report = {
  alphabet : string;
  max_nodes : int;
  raw_candidates : int;
  candidates : int;
  survived : int;
  refuted : int;
  inconclusive : int;
  checks : int;
  rediscovered : (string * string) list;
  seeded_refuted : string list;
  seeded_survived : string list;
  saved : saved_case list;
  ranked : scored list;
  promotion : promotion;
  suite_queries : int;
  scoring_optimizer_runs : int;
}

(* ------------------------------------------------------------------ *)
(* Naming                                                              *)
(* ------------------------------------------------------------------ *)

(* [name_of] is a 32-bit hash; on a collision the later candidate (in
   enumeration order, which is deterministic) gets a numeric suffix so
   rule names stay unique within the run and stable across runs. *)
let name_candidates cands =
  let used = Hashtbl.create 256 in
  List.map
    (fun c ->
      let base = T.name_of c in
      let name =
        if not (Hashtbl.mem used base) then base
        else
          let rec go i =
            let n = Printf.sprintf "%s-%d" base i in
            if Hashtbl.mem used n then go (i + 1) else n
          in
          go 2
      in
      Hashtbl.add used name ();
      (name, c))
    cands

(* ------------------------------------------------------------------ *)
(* Counterexample persistence                                          *)
(* ------------------------------------------------------------------ *)

(* Seeded-unsound refutations are always kept (CI replays them); other
   refutations are deduplicated by divergence kind — the first few
   distinct failure modes in enumeration order tell the story, five
   hundred conjunct-drop variants do not. *)
let select_refutations max_saved results =
  let refuted =
    List.filter_map
      (fun (r : V.result) ->
        match r.verdict with V.Refuted ref -> Some (r, ref) | _ -> None)
      results
  in
  let seeded, rest =
    List.partition (fun ((r : V.result), _) -> T.seeded_name r.cand <> None) refuted
  in
  let kinds = Hashtbl.create 4 in
  let picked =
    List.filter
      (fun ((_ : V.result), (ref : V.refutation)) ->
        let k = Triage.Divergence.kind_name ref.divergence.kind in
        if Hashtbl.mem kinds k || Hashtbl.length kinds >= max_saved then false
        else begin
          Hashtbl.add kinds k ();
          true
        end)
      rest
  in
  seeded @ picked

let save_refutation ~dir (config : config) cat ((r : V.result), (ref : V.refutation)) =
  let m = V.minimize config.params cat r.cand ref in
  let ref' = m.V.refutation in
  let d = ref'.divergence in
  let meta : Triage.Corpus.meta =
    { id = "disc-" ^ r.name;
      target = r.name;
      kind = d.kind;
      shape = L.size ref'.lhs_instance;
      fault = None;
      catalog = config.catalog;
      budget = config.params.budget;
      original_nodes = m.nodes_before;
      reduced_nodes = m.nodes_after;
      steps = m.steps;
      checks = m.min_checks;
      expected_rows = d.expected_rows;
      actual_rows = d.actual_rows;
      rhs_sql = Some (Relalg.Sql_print.to_sql cat ref'.rhs_instance) }
  in
  let path =
    match dir with
    | None -> None
    | Some dir -> (
      match Triage.Corpus.save ~dir cat meta ref'.lhs_instance with
      | Ok p -> Some p
      | Error e ->
        Fmt.epr "discovery: corpus save %s failed: %s@." meta.id e;
        None)
  in
  { case_id = meta.id;
    case_rule = r.name;
    case_display = T.display r.cand;
    kind = Triage.Divergence.kind_name d.kind;
    seeded = T.seeded_name r.cand;
    nodes_before = m.nodes_before;
    nodes_after = m.nodes_after;
    path }

(* ------------------------------------------------------------------ *)
(* Ranking                                                             *)
(* ------------------------------------------------------------------ *)

let fired_total name = Obs.Metrics.counter_total ~label:name "optimizer.rule.fired"

(* Rank survivors by what they would be worth as optimizer rules: the
   plan-cost regression when disabled (the same Cost(q, ¬R) − Cost(q)
   edge the compression matrix is made of — warm-startable from [disk]),
   how often exploration actually fires them, and how much the rewrite
   shrinks the tree. *)
let rank ?(pool = Par.Pool.sequential) ?disk (config : config) cat survivors =
  let rules =
    Optimizer.Rules.all
    @ List.map (fun ((name, c), _) -> Dsl.Rdsl.compile (T.to_rdsl ~name c)) survivors
  in
  let fw = F.create ~options:(rank_options config) ~rules cat in
  let names = List.map (fun ((name, _), _) -> name) survivors in
  let fired0 = List.map fired_total names in
  let targets = List.map (fun n -> Suite.Single n) names in
  let g = Storage.Prng.create (config.params.seed + 17) in
  let suite = Suite.generate ~max_trials:12 ~pool fw g ~targets ~k:config.suite_k in
  let fired =
    List.map2 (fun n before -> fired_total n - before) names fired0
  in
  F.reset_invocations fw;
  let ec = Core.Compress.edge_costs ?disk fw suite in
  let pairs =
    List.concat
      (List.mapi
         (fun ti (_, qs) -> List.map (fun qi -> (ti, qi)) qs)
         suite.per_target)
  in
  Core.Compress.prefetch ~pool ec pairs;
  Core.Compress.save_matrix ec;
  let scoring_runs = F.invocations fw in
  let scored =
    List.mapi
      (fun ti (((name, c), clean), fired) ->
        let _, qs = List.nth suite.per_target ti in
        let saving =
          List.fold_left
            (fun acc qi ->
              let e = Core.Compress.edge_cost ec ~target_idx:ti ~query_idx:qi in
              if Float.is_finite e then
                acc +. Float.max 0. (e -. suite.entries.(qi).cost)
              else acc)
            0. qs
        in
        let shrink = T.ops c.T.lhs - T.ops c.T.rhs in
        let score =
          log (1. +. saving) +. log (1. +. float_of_int fired)
          +. (0.25 *. float_of_int shrink)
        in
        { rule_name = name;
          display = T.display c;
          saving;
          fired;
          shrink;
          clean_instances = clean;
          rediscovered = T.rediscovered_name c;
          score })
      (List.combine survivors fired)
  in
  let ranked =
    List.sort
      (fun a b ->
        match Float.compare b.score a.score with
        | 0 -> String.compare a.rule_name b.rule_name
        | c -> c)
      scored
  in
  (ranked, Array.length suite.entries, scoring_runs)

(* ------------------------------------------------------------------ *)
(* Promotion                                                           *)
(* ------------------------------------------------------------------ *)

(* The promoted rules face the framework's own pipeline: a fresh suite
   targeting them, SMC compression, and full correctness validation. A
   candidate whose rule surfaces bugs is demoted — discovery feeds the
   tester and the tester has the last word. *)
let promote ?(pool = Par.Pool.sequential) ?disk (config : config) cat by_name ranked =
  let attempted =
    List.filteri (fun i _ -> i < config.top_k) ranked
    |> List.map (fun s -> s.rule_name)
  in
  if attempted = [] then
    { attempted = [];
      promoted = [];
      demoted = [];
      pairs_checked = 0;
      plan_executions = 0;
      promo_suite_queries = 0 }
  else begin
    let rules =
      Optimizer.Rules.all
      @ List.map
          (fun n -> Dsl.Rdsl.compile (T.to_rdsl ~name:n (Hashtbl.find by_name n)))
          attempted
    in
    let fw = F.create ~options:(rank_options config) ~rules cat in
    let g = Storage.Prng.create (config.params.seed + 29) in
    let targets = List.map (fun n -> Suite.Single n) attempted in
    let suite = Suite.generate ~max_trials:12 ~pool fw g ~targets ~k:config.suite_k in
    let sol = Core.Compress.smc ~pool ~ec:(Core.Compress.edge_costs ?disk fw suite) fw suite in
    let creport = Core.Correctness.run ~pool fw suite sol in
    let bug_counts = Hashtbl.create 4 in
    List.iter
      (fun (b : Core.Correctness.bug) ->
        let n = Suite.target_name b.target in
        Hashtbl.replace bug_counts n (1 + Option.value ~default:0 (Hashtbl.find_opt bug_counts n)))
      creport.bugs;
    let demoted =
      List.filter_map
        (fun n -> Option.map (fun c -> (n, c)) (Hashtbl.find_opt bug_counts n))
        attempted
    in
    { attempted;
      promoted = List.filter (fun n -> not (Hashtbl.mem bug_counts n)) attempted;
      demoted;
      pairs_checked = creport.pairs_checked;
      plan_executions = creport.executions;
      promo_suite_queries = Array.length suite.entries }
  end

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)
(* ------------------------------------------------------------------ *)

let run ?(pool = Par.Pool.sequential) ?disk (config : config) =
  Obs.Trace.with_span "discovery.run"
    ~args:[ ("alphabet", J.String (T.alphabet_name config.alphabet)) ]
  @@ fun () ->
  let cat = Triage.Corpus.catalog_of_spec config.catalog in
  let cands, raw_candidates =
    Obs.Trace.with_span "discovery.enumerate" @@ fun () ->
    T.enumerate_counted ~pool config.alphabet ~max_nodes:config.max_nodes
  in
  let named = name_candidates cands in
  let results =
    Obs.Trace.with_span "discovery.validate" @@ fun () ->
    V.run ~pool config.params cat named
  in
  let survivors =
    List.filter_map
      (fun (r : V.result) ->
        match r.verdict with
        | V.Survived clean -> Some ((r.name, r.cand), clean)
        | _ -> None)
      results
  in
  let count p = List.length (List.filter p results) in
  let refuted = count (fun r -> match r.V.verdict with V.Refuted _ -> true | _ -> false) in
  let inconclusive =
    count (fun r -> match r.V.verdict with V.Inconclusive _ -> true | _ -> false)
  in
  let saved =
    Obs.Trace.with_span "discovery.minimize" @@ fun () ->
    List.map
      (save_refutation ~dir:config.corpus_dir config cat)
      (select_refutations config.max_saved results)
  in
  let ranked, suite_queries, scoring_runs =
    if survivors = [] then ([], 0, 0)
    else
      Obs.Trace.with_span "discovery.rank" @@ fun () ->
      rank ~pool ?disk config cat survivors
  in
  let by_name = Hashtbl.create 64 in
  List.iter (fun ((name, c), _) -> Hashtbl.replace by_name name c) survivors;
  let promotion =
    Obs.Trace.with_span "discovery.promote" @@ fun () ->
    promote ~pool ?disk config cat by_name ranked
  in
  { alphabet = T.alphabet_name config.alphabet;
    max_nodes = config.max_nodes;
    raw_candidates;
    candidates = List.length cands;
    survived = List.length survivors;
    refuted;
    inconclusive;
    checks = List.fold_left (fun n (r : V.result) -> n + r.checks) 0 results;
    rediscovered =
      List.filter_map
        (fun ((name, c), _) ->
          Option.map (fun known -> (name, known)) (T.rediscovered_name c))
        survivors;
    seeded_refuted =
      List.filter_map
        (fun (r : V.result) ->
          match (r.verdict, T.seeded_name r.cand) with
          | V.Refuted _, Some s -> Some s
          | _ -> None)
        results;
    seeded_survived =
      List.filter_map
        (fun (r : V.result) ->
          match (r.verdict, T.seeded_name r.cand) with
          | V.Survived _, Some s -> Some s
          | _ -> None)
        results;
    saved;
    ranked;
    promotion;
    suite_queries;
    scoring_optimizer_runs = scoring_runs }

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let scored_json s =
  J.Obj
    [ ("rule", J.String s.rule_name);
      ("candidate", J.String s.display);
      ("saving", J.Float s.saving);
      ("fired", J.Int s.fired);
      ("shrink", J.Int s.shrink);
      ("clean_instances", J.Int s.clean_instances);
      ( "rediscovered",
        match s.rediscovered with Some n -> J.String n | None -> J.Null );
      ("score", J.Float s.score) ]

let saved_json (s : saved_case) =
  J.Obj
    [ ("id", J.String s.case_id);
      ("rule", J.String s.case_rule);
      ("candidate", J.String s.case_display);
      ("kind", J.String s.kind);
      ("seeded", match s.seeded with Some n -> J.String n | None -> J.Null);
      ("nodes_before", J.Int s.nodes_before);
      ("nodes_after", J.Int s.nodes_after) ]

let report_json r =
  J.Obj
    [ ("alphabet", J.String r.alphabet);
      ("max_nodes", J.Int r.max_nodes);
      ("raw_candidates", J.Int r.raw_candidates);
      ("candidates", J.Int r.candidates);
      ("survived", J.Int r.survived);
      ("refuted", J.Int r.refuted);
      ("inconclusive", J.Int r.inconclusive);
      ("checks", J.Int r.checks);
      ( "rediscovered",
        J.List
          (List.map
             (fun (rule, known) ->
               J.Obj [ ("rule", J.String rule); ("known", J.String known) ])
             r.rediscovered) );
      ("seeded_refuted", J.List (List.map (fun s -> J.String s) r.seeded_refuted));
      ("seeded_survived", J.List (List.map (fun s -> J.String s) r.seeded_survived));
      ("saved", J.List (List.map saved_json r.saved));
      ("ranked", J.List (List.map scored_json r.ranked));
      ( "promotion",
        J.Obj
          [ ("attempted", J.List (List.map (fun s -> J.String s) r.promotion.attempted));
            ("promoted", J.List (List.map (fun s -> J.String s) r.promotion.promoted));
            ( "demoted",
              J.List
                (List.map
                   (fun (n, c) -> J.Obj [ ("rule", J.String n); ("bugs", J.Int c) ])
                   r.promotion.demoted) );
            ("pairs_checked", J.Int r.promotion.pairs_checked);
            ("plan_executions", J.Int r.promotion.plan_executions);
            ("suite_queries", J.Int r.promotion.promo_suite_queries) ] );
      ("suite_queries", J.Int r.suite_queries);
      ("scoring_optimizer_runs", J.Int r.scoring_optimizer_runs) ]

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>discovery (%s/%d): %d candidates (%d raw), %d survived, %d refuted, %d \
     inconclusive, %d checks@,"
    r.alphabet r.max_nodes r.candidates r.raw_candidates r.survived r.refuted
    r.inconclusive r.checks;
  Format.fprintf fmt "rediscovered %d known-sound rewrite(s):" (List.length r.rediscovered);
  List.iter (fun (_, known) -> Format.fprintf fmt " %s" known) r.rediscovered;
  Format.fprintf fmt "@,seeded-unsound refuted: %d/%d"
    (List.length r.seeded_refuted)
    (List.length r.seeded_refuted + List.length r.seeded_survived);
  if r.seeded_survived <> [] then begin
    Format.fprintf fmt "@,SEEDED-UNSOUND SURVIVED:";
    List.iter (fun s -> Format.fprintf fmt " %s" s) r.seeded_survived
  end;
  if r.saved <> [] then begin
    Format.fprintf fmt "@,counterexamples:";
    List.iter
      (fun (s : saved_case) ->
        Format.fprintf fmt "@,  %-28s %-12s %s (%d -> %d nodes)%s" s.case_id s.kind
          s.case_display s.nodes_before s.nodes_after
          (match s.seeded with Some n -> " [seeded: " ^ n ^ "]" | None -> ""))
      r.saved
  end;
  let top = List.filteri (fun i _ -> i < 10) r.ranked in
  if top <> [] then begin
    Format.fprintf fmt "@,top ranked (of %d, %d suite queries, %d scoring runs):"
      (List.length r.ranked) r.suite_queries r.scoring_optimizer_runs;
    List.iter
      (fun s ->
        Format.fprintf fmt
          "@,  %6.2f %-12s %-44s saving=%.1f fired=%d shrink=%d%s" s.score
          s.rule_name s.display s.saving s.fired s.shrink
          (match s.rediscovered with Some n -> " = " ^ n | None -> ""))
      top
  end;
  Format.fprintf fmt "@,promoted %d/%d:" (List.length r.promotion.promoted)
    (List.length r.promotion.attempted);
  List.iter (fun n -> Format.fprintf fmt " %s" n) r.promotion.promoted;
  List.iter
    (fun (n, c) -> Format.fprintf fmt "@,demoted %s: %d bug(s) in promotion suite" n c)
    r.promotion.demoted;
  Format.fprintf fmt "@]"
