(* Incremental maintenance: rule-content fingerprints, the suite
   manifest, and the delta regeneration/recompression layer. The load-
   bearing property throughout: an incremental rebuild after any rule
   edit is byte-identical to a cold rebuild with the same registry, at
   any pool size. *)
module F = Core.Framework
module Su = Core.Suite
module C = Core.Compress
module I = Core.Incr
module M = Storage.Manifest
module R = Optimizer.Rule

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let cat = Storage.Datagen.tpch ~scale:0.001 ()
let options = { Optimizer.Engine.default_options with max_trees = 400 }

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qtr-test-incr-%d-%d" (Unix.getpid ()) !n)

(* ---------------- fingerprints ---------------- *)

let test_fingerprints_distinct () =
  let fps = Optimizer.Rules.fingerprints () in
  check int_t "every rule fingerprinted" Optimizer.Rules.count (List.length fps);
  check int_t "fingerprints distinct" (List.length fps)
    (List.length (List.sort_uniq compare (List.map snd fps)));
  List.iter
    (fun (_, fp) -> check int_t "digest-sized" 32 (String.length fp))
    fps

let test_dsl_fingerprint_is_term_digest () =
  (* Every registered rule is a DSL term and digests it, so each
     fingerprint is a pure function of the declarative source. *)
  check int_t "every registered rule has a DSL term" Optimizer.Rules.count
    (List.length Optimizer.Rules.dsl_rules);
  List.iter
    (fun (r : R.t) ->
      match Optimizer.Rules.rdsl_of r.name with
      | None -> Alcotest.failf "%s has no DSL term" r.name
      | Some d -> check string_t (r.name ^ " term digest") (Dsl.Rdsl.fingerprint d) r.fingerprint)
    Optimizer.Rules.all

let test_simulate_edit () =
  let orig = Option.get (Optimizer.Rules.find "JoinCommute") in
  let edited = Optimizer.Rules.simulate_edit "JoinCommute" in
  check int_t "same registry size" Optimizer.Rules.count (List.length edited);
  let e = List.find (fun (r : R.t) -> r.name = "JoinCommute") edited in
  check bool_t "fingerprint changed" true (e.R.fingerprint <> orig.R.fingerprint);
  check string_t "pattern fingerprint unchanged" orig.R.pattern_fp e.R.pattern_fp;
  Alcotest.check_raises "unknown rule"
    (Invalid_argument "Rules.simulate_edit: unknown rule Nope") (fun () ->
      ignore (Optimizer.Rules.simulate_edit "Nope"))

let test_collect_matched () =
  let fw = F.create ~options (Storage.Datagen.micro ()) in
  let q =
    Relalg.Logical.Join
      { kind = Relalg.Logical.Inner;
        pred =
          Relalg.Scalar.eq
            (Relalg.Scalar.col (Relalg.Ident.make "x" "a"))
            (Relalg.Scalar.col (Relalg.Ident.make "y" "d"));
        left = Relalg.Logical.Get { table = "t1"; alias = "x" };
        right = Relalg.Logical.Get { table = "t2"; alias = "y" } }
  in
  let (), matched = F.with_matched (fun () -> ignore (F.ruleset fw q)) in
  check bool_t "JoinCommute matched" true (List.mem "JoinCommute" matched);
  check bool_t "sorted" true (List.sort String.compare matched = matched);
  let (), empty = F.with_matched (fun () -> ()) in
  check int_t "no work, no deps" 0 (List.length empty)

(* ---------------- manifest ---------------- *)

let ri name fp pfp = { M.name; fingerprint = fp; pattern_fp = pfp }

let test_manifest_roundtrip () =
  let dc = Storage.Diskcache.create ~dir:(tmp_dir ()) () in
  let m = M.make ~config:"cfg-a" ~rules:[ ri "A" "f1" "p1"; ri "B" "f2" "p2" ] in
  let m = M.set_section m "suite" "payload-1" in
  check bool_t "save" true (M.save dc ~key:"k1" m);
  (match M.load dc ~key:"k1" with
  | None -> Alcotest.fail "manifest did not round-trip"
  | Some m' ->
    check string_t "config" "cfg-a" m'.M.config;
    check int_t "rules" 2 (List.length m'.M.rules);
    check (Alcotest.option string_t) "section" (Some "payload-1")
      (M.section m' "suite");
    check (Alcotest.option string_t) "absent section" None (M.section m' "matrix"));
  check bool_t "unknown key misses" true (M.load dc ~key:"nope" = None)

let test_manifest_index_ordering () =
  let dc = Storage.Diskcache.create ~dir:(tmp_dir ()) () in
  let m c = M.make ~config:c ~rules:[] in
  ignore (M.save dc ~key:"k1" (m "c1"));
  ignore (M.save dc ~key:"k2" (m "c2"));
  check (Alcotest.list (Alcotest.pair string_t string_t)) "two entries, in order"
    [ ("k1", "c1"); ("k2", "c2") ] (M.index dc);
  (* re-saving moves the key to the most-recent position *)
  ignore (M.save dc ~key:"k1" (m "c1"));
  check (Alcotest.list (Alcotest.pair string_t string_t)) "k1 now latest"
    [ ("k2", "c2"); ("k1", "c1") ] (M.index dc)

let test_manifest_diff () =
  let old =
    M.make ~config:""
      ~rules:[ ri "A" "f1" "p1"; ri "B" "f2" "p2"; ri "C" "f3" "p3"; ri "E" "f5" "p5" ]
  in
  let live =
    [ ri "A" "f1x" "p1" (* body edited *); ri "B" "f2y" "p2y" (* pattern changed *);
      ri "D" "f4" "p4" (* added; C removed *); ri "E" "f5" "p5" (* untouched *) ]
  in
  check
    (Alcotest.list (Alcotest.pair string_t string_t))
    "classified diff"
    [ ("A", "body-changed"); ("B", "pattern-changed"); ("C", "removed");
      ("D", "added") ]
    (List.map (fun (n, c) -> (n, M.change_to_string c)) (M.diff old ~rules:live))

(* ---------------- the pipeline, incremental vs cold ---------------- *)

(* Small fixed configuration: 8-rule registry, the first 4 as targets.
   Edit operations touch any of the 8; removals only the non-targeted
   half, so every target stays generatable. *)
let base_rules = List.filteri (fun i _ -> i < 8) Optimizer.Rules.all
let base_names = List.map (fun (r : R.t) -> r.name) base_rules
let targets =
  List.map (fun r -> Su.Single r) (List.filteri (fun i _ -> i < 4) base_names)
let k = 2
let seed = 11

type outcome = {
  o_entries : (Relalg.Logical.t * float) list;
  o_per_target : (Su.target * int list) list;
  o_assignment : (Su.target * (int * float) list) list;
  o_cost : float;
  o_invocations : int;
}

let outcome_of (suite : Su.t) (sol : C.solution) =
  { o_entries =
      Array.to_list (Array.map (fun (e : Su.entry) -> (e.query, e.cost)) suite.entries);
    o_per_target = suite.per_target;
    o_assignment = sol.assignment;
    o_cost = sol.total_cost;
    o_invocations = sol.invocations }

let run_cold ~pool rules =
  let fw = F.create ~options ~rules cat in
  let g = Storage.Prng.create seed in
  let suite = Su.generate ~pool fw g ~targets ~k in
  let ec = C.edge_costs fw suite in
  let sol = C.topk ~pool ~ec fw suite in
  outcome_of suite sol

let run_incremental ~pool ~dir rules =
  let fw = F.create ~options ~rules cat in
  let dc = Storage.Diskcache.create ~dir () in
  let sess = I.start ~dc ~desc:"test-incr" fw in
  let preview = I.preview sess in
  let g = Storage.Prng.create seed in
  let suite = I.generate ~pool sess g ~targets ~k in
  let ec = C.edge_costs ~warm_edges:(I.warm_edges sess) fw suite in
  let sol = C.topk ~pool ~ec fw suite in
  I.note_matrix sess ec;
  check bool_t "manifest written" true (I.finish sess);
  (outcome_of suite sol, I.result sess, preview)

let check_equal name (cold : outcome) (incr : outcome) =
  check bool_t (name ^ ": entries") true (cold.o_entries = incr.o_entries);
  check bool_t (name ^ ": per-target") true (cold.o_per_target = incr.o_per_target);
  check bool_t (name ^ ": assignment") true (cold.o_assignment = incr.o_assignment);
  check bool_t (name ^ ": total cost") true (cold.o_cost = incr.o_cost);
  check int_t (name ^ ": invocations") cold.o_invocations incr.o_invocations

let test_incremental_noop_reuses_everything () =
  let pool = Par.Pool.create ~jobs:2 () in
  let dir = tmp_dir () in
  let cold, r0, _ = run_incremental ~pool ~dir base_rules in
  check bool_t "first run is cold" true r0.I.full_rebuild;
  let warm, r, _ = run_incremental ~pool ~dir base_rules in
  check_equal "noop rerun" cold warm;
  check int_t "all targets reused" (List.length targets) r.I.targets_reusable;
  check int_t "no edges recomputed" 0 r.I.edges_recomputed;
  check bool_t "edges served warm" true (r.I.edges_reusable > 0)

let test_incremental_edit_matches_cold () =
  let pool = Par.Pool.create ~jobs:2 () in
  let dir = tmp_dir () in
  ignore (run_incremental ~pool ~dir base_rules);
  (* a behavior-preserving edit of a targeted rule: everything that
     depends on it recomputes and must reproduce the same bytes *)
  let edited = Optimizer.Rules.simulate_edit ~rules:base_rules (List.nth base_names 0) in
  let cold = run_cold ~pool edited in
  let warm, r, p = run_incremental ~pool ~dir edited in
  check_equal "edited rule" cold warm;
  (* the delta preview predicted exactly what the run reused *)
  check int_t "preview targets = reused" r.I.targets_reusable p.I.targets_reusable;
  check int_t "preview target total" r.I.targets_total p.I.targets_total;
  check int_t "preview edges = reused" r.I.edges_reusable p.I.edges_reusable;
  check int_t "preview edge total" r.I.edges_total p.I.edges_total;
  check bool_t "not a full rebuild" true (not r.I.full_rebuild);
  check bool_t "something was reused" true (r.I.edges_reusable > 0);
  check bool_t "something was recomputed" true (r.I.edges_recomputed > 0)

let test_incremental_jobs_invariant () =
  let dir1 = tmp_dir () and dir4 = tmp_dir () in
  let p1 = Par.Pool.create ~jobs:1 () and p4 = Par.Pool.create ~jobs:4 () in
  let c1, _, _ = run_incremental ~pool:p1 ~dir:dir1 base_rules in
  let c4, _, _ = run_incremental ~pool:p4 ~dir:dir4 base_rules in
  check_equal "cold jobs 1 vs 4" c1 c4;
  let edited = Optimizer.Rules.simulate_edit ~rules:base_rules (List.nth base_names 1) in
  (* warm rebuilds cross-wise: jobs 4 over the jobs-1 manifest and vice
     versa — manifests must be interchangeable *)
  let w4, _, _ = run_incremental ~pool:p4 ~dir:dir1 edited in
  let w1, _, _ = run_incremental ~pool:p1 ~dir:dir4 edited in
  check_equal "warm jobs 1 vs 4" w4 w1

(* An inert body is a behavior-CHANGING edit (the rule stops firing):
   suite, ruleset and costs all shift. Ground truth stays the same —
   a cold rebuild with the same edited registry. *)
(* Test rules state their content digest explicitly, derived from a tag
   and the name or prior fingerprint they stand in for. *)
let digest_of tag id = Digest.to_hex (Digest.string (tag ^ "\x00" ^ id))

let inert name rules =
  List.map
    (fun (r : R.t) ->
      if r.name = name then
        R.make ~fingerprint:(digest_of "inert" r.fingerprint) r.name r.pattern (fun _ _ -> [])
      else r)
    rules

let test_incremental_behavior_change_matches_cold () =
  let pool = Par.Pool.create ~jobs:2 () in
  let dir = tmp_dir () in
  ignore (run_incremental ~pool ~dir base_rules);
  (* a non-targeted rule goes inert: targets stay generatable, but any
     column that consulted the rule must recompute *)
  let edited = inert (List.nth base_names 5) base_rules in
  let cold = run_cold ~pool edited in
  let warm, _, _ = run_incremental ~pool ~dir edited in
  check_equal "inert edit" cold warm

let test_incremental_removal_matches_cold () =
  let pool = Par.Pool.create ~jobs:2 () in
  let dir = tmp_dir () in
  ignore (run_incremental ~pool ~dir base_rules);
  let removed = List.nth base_names 6 in
  let rules = List.filter (fun (r : R.t) -> r.name <> removed) base_rules in
  let cold = run_cold ~pool rules in
  let warm, _, _ = run_incremental ~pool ~dir rules in
  check_equal "removed rule" cold warm

let test_incremental_addition_forces_full_rebuild () =
  let pool = Par.Pool.create ~jobs:2 () in
  let dir = tmp_dir () in
  ignore (run_incremental ~pool ~dir base_rules);
  let extra =
    R.make ~fingerprint:(digest_of "test-extra" "ZZZ_TestExtra") "ZZZ_TestExtra"
      (Option.get (Optimizer.Rules.find "JoinCommute")).R.pattern (fun _ _ -> [])
  in
  let rules = base_rules @ [ extra ] in
  let cold = run_cold ~pool rules in
  let warm, r, _ = run_incremental ~pool ~dir rules in
  check bool_t "addition forces full rebuild" true r.I.full_rebuild;
  check int_t "nothing served warm" 0 r.I.edges_reusable;
  check_equal "added rule" cold warm

(* ---------------- the property ---------------- *)

(* Random maintenance histories: a sequence of edits / inert edits /
   removals / additions applied cumulatively, an incremental rebuild
   against the evolving manifest after each step, each compared against
   a cold rebuild with the same registry. *)
type op = Edit of int | Inert of int | Remove of int | Add of int

let op_print = function
  | Edit i -> Printf.sprintf "Edit %d" i
  | Inert i -> Printf.sprintf "Inert %d" i
  | Remove i -> Printf.sprintf "Remove %d" i
  | Add i -> Printf.sprintf "Add %d" i

let op_gen =
  QCheck.Gen.(
    oneof
      [ map (fun i -> Edit i) (int_bound 7);
        map (fun i -> Inert i) (int_bound 7);
        (* removals spare the targeted first half *)
        map (fun i -> Remove (4 + i)) (int_bound 3);
        map (fun i -> Add i) (int_bound 99) ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_range 1 3) op_gen)

let apply_op rules op =
  let bump tag name =
    List.map
      (fun (r : R.t) ->
        if r.name = name then
          R.make ~fingerprint:(digest_of tag r.fingerprint) r.name r.pattern r.apply
        else r)
      rules
  in
  match op with
  | Edit i -> bump "prop-edit" (List.nth base_names i)
  | Inert i -> inert (List.nth base_names i) rules
  | Remove i ->
    let name = List.nth base_names i in
    List.filter (fun (r : R.t) -> r.name <> name) rules
  | Add i ->
    let name = Printf.sprintf "ZZZ_PropExtra%d" i in
    if List.exists (fun (r : R.t) -> r.name = name) rules then rules
    else
      rules
      @ [ R.make ~fingerprint:(digest_of "prop-add" name) name
            (Option.get (Optimizer.Rules.find "JoinCommute")).R.pattern
            (fun _ _ -> []) ]

let prop_incremental_equals_cold =
  QCheck.Test.make ~name:"random edit history: incremental = cold rebuild" ~count:6
    ops_arb (fun ops ->
      let pool = Par.Pool.create ~jobs:2 () in
      let dir = tmp_dir () in
      ignore (run_incremental ~pool ~dir base_rules);
      let rules = ref base_rules in
      List.for_all
        (fun op ->
          rules := apply_op !rules op;
          let cold = run_cold ~pool !rules in
          let warm, _, _ = run_incremental ~pool ~dir !rules in
          cold.o_entries = warm.o_entries
          && cold.o_per_target = warm.o_per_target
          && cold.o_assignment = warm.o_assignment
          && cold.o_cost = warm.o_cost
          && cold.o_invocations = warm.o_invocations
          || QCheck.Test.fail_reportf "divergence after [%s]"
               (String.concat "; " (List.map op_print ops)))
        ops)

let to_alco = QCheck_alcotest.to_alcotest

let suite =
  [ ( "incr.fingerprints",
      [ Alcotest.test_case "distinct per rule" `Quick test_fingerprints_distinct;
        Alcotest.test_case "dsl = term digest" `Quick test_dsl_fingerprint_is_term_digest;
        Alcotest.test_case "simulate_edit" `Quick test_simulate_edit;
        Alcotest.test_case "collect_matched" `Quick test_collect_matched ] );
    ( "incr.manifest",
      [ Alcotest.test_case "roundtrip" `Quick test_manifest_roundtrip;
        Alcotest.test_case "index ordering" `Quick test_manifest_index_ordering;
        Alcotest.test_case "diff classification" `Quick test_manifest_diff ] );
    ( "incr.pipeline",
      [ Alcotest.test_case "noop reuses everything" `Slow
          test_incremental_noop_reuses_everything;
        Alcotest.test_case "edit matches cold" `Slow test_incremental_edit_matches_cold;
        Alcotest.test_case "jobs invariant" `Slow test_incremental_jobs_invariant;
        Alcotest.test_case "behavior change matches cold" `Slow
          test_incremental_behavior_change_matches_cold;
        Alcotest.test_case "removal matches cold" `Slow
          test_incremental_removal_matches_cold;
        Alcotest.test_case "addition forces full rebuild" `Slow
          test_incremental_addition_forces_full_rebuild ] );
    ("incr.property", [ to_alco prop_incremental_equals_cold ]) ]
