(* The rewrite DSL and its bounded symbolic oracle: a golden digest of
   every registered rule's substitutes, image round-trips, the oracle
   over every registered rule and the discovery reference sets, rule-definition fuzzing whose mutants are
   caught by the symbolic oracle AND the differential pipeline, the four
   seeded faults as DSL terms, and the pattern-mismatch probe as a
   runtest gate. *)
module F = Core.Framework
module Su = Core.Suite
module C = Core.Compress
module R = Dsl.Rdsl
module L = Relalg.Logical
module H = Relalg.Hashcons

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let micro = Storage.Datagen.micro ()
let seed_arb = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000)

let random_tree ?(max_ops = 7) catalog seed =
  let g = Storage.Prng.create seed in
  let ctx = { Core.Arggen.g; cat = catalog } in
  Core.Random_gen.generate ~max_ops ctx

(* Golden substitutes: every registered rule applied at every node of a
   fixed tree set — the random micro-catalog trees plus two dozen
   instantiations of each rule's own pattern (so every rule fires) — and
   the substitutes digested structurally. Every tree is generated from
   the same fresh-label base, so relation labels, and the set orders they
   induce, do not depend on which tests ran before. The digest was
   computed while the agg and extra families were still hand-written
   closures (and the join and select families were held equal to theirs
   by a parity property): it pins the behaviour of every registered
   rule across the port to the DSL. *)
let golden_digest = "05358b0bae56a7a4c269d433f0e23d51"

let with_label_base f =
  let next = Relalg.Ident.fresh_rel () in
  let saved = int_of_string (String.sub next 1 (String.length next - 1)) in
  Relalg.Ident.set_fresh 0;
  Fun.protect ~finally:(fun () -> Relalg.Ident.set_fresh saved) f

let golden_trees () =
  List.init 300 (fun seed -> with_label_base (fun () -> random_tree micro seed))
  @ List.concat_map
      (fun (r : Optimizer.Rule.t) ->
        List.filter_map
          (fun seed ->
            with_label_base (fun () ->
                Core.Query_gen.instantiate
                  { Core.Arggen.g = Storage.Prng.create seed; cat = micro }
                  r.pattern))
          (List.init 24 Fun.id))
      Optimizer.Rules.all

let test_golden_substitutes () =
  let buf = Buffer.create 65536 in
  let fired = Hashtbl.create 64 in
  List.iter
    (fun t ->
      L.fold
        (fun () node ->
          Buffer.add_char buf '\n';
          List.iter
            (fun (r : Optimizer.Rule.t) ->
              match r.apply micro (H.intern node) with
              | [] -> ()
              | subs ->
                Hashtbl.replace fired r.name ();
                Buffer.add_string buf r.name;
                List.iter
                  (fun (s : H.node) ->
                    Buffer.add_string buf (Marshal.to_string s.repr [ Marshal.No_sharing ]))
                  subs)
            Optimizer.Rules.all)
        () t)
    (golden_trees ());
  List.iter
    (fun (r : Optimizer.Rule.t) ->
      check bool_t (r.name ^ " fires on the golden trees") true (Hashtbl.mem fired r.name))
    Optimizer.Rules.all;
  check Alcotest.string "substitute digest" golden_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* A compiled rule's substitutes are exactly its one-step [image]. *)
let prop_compiled_is_image =
  QCheck.Test.make ~name:"compiled rules return their one-step image" ~count:100 seed_arb
    (fun seed ->
      let t = random_tree micro seed in
      let n = H.intern t in
      List.for_all
        (fun ((_, d) : string * R.rule) ->
          let image = match R.image micro d n with Some n' -> [ n' ] | None -> [] in
          List.equal ( == ) ((R.compile d).apply micro n) image
          || QCheck.Test.fail_reportf "%s: compiled <> image on\n%s" d.name (L.to_string t))
        Optimizer.Rules.dsl_rules)

(* ------------------------------------------------------------------ *)
(* Discovered rules                                                    *)

module T = Discovery.Template

(* How discovery turns a candidate into an engine rule. *)
let discovered_rule (name, c) = R.compile (T.to_rdsl ~name c)

(* Every candidate of the full alphabet up to two operators a side, plus
   both reference sets. *)
let discovered_candidates () =
  List.map (fun c -> (T.name_of c, c)) (T.enumerate T.Full ~max_nodes:2)
  @ T.known_sound @ T.seeded_unsound

(* Every filter doubled: [F[p](x)] becomes [F[p](F[p](x))], so a
   candidate repeating a predicate variable meets both equal (the
   doubled pair) and unequal (a doubled filter over another filter)
   bindings. *)
let rec double_filters t =
  let t = L.with_children t (List.map double_filters (L.children t)) in
  match t with L.Filter { pred; _ } -> L.Filter { pred; child = t } | _ -> t

(* Golden substitutes of discovered rules: every candidate above applied
   at every node of the golden micro trees and of their filter-doubled
   copies, and at every node of three instantiations of its own
   pattern. The digest was computed while discovered rules still ran
   through their own matcher and builder (with their own schema
   alignment), before they became [Rdsl] terms: it pins that
   compiling [T.to_rdsl] changes no substitute. *)
let discovered_digest = "7a0f4511635a0c07c9550fbbe3690e0c"

let test_discovered_parity () =
  let rules = List.map discovered_rule (discovered_candidates ()) in
  let buf = Buffer.create 65536 in
  let fired = Hashtbl.create 256 in
  let apply_all rules t =
    L.fold
      (fun () node ->
        Buffer.add_char buf '\n';
        List.iter
          (fun (r : Optimizer.Rule.t) ->
            match r.apply micro (H.intern node) with
            | [] -> ()
            | subs ->
              Hashtbl.replace fired r.name ();
              Buffer.add_string buf r.name;
              List.iter
                (fun (s : H.node) ->
                  Buffer.add_string buf (Marshal.to_string s.repr [ Marshal.No_sharing ]))
                subs)
          rules)
      () t
  in
  let trees = List.init 300 (fun seed -> with_label_base (fun () -> random_tree micro seed)) in
  let doubled =
    List.filter_map
      (fun t ->
        let d = double_filters t in
        if L.equal d t then None else Some d)
      trees
  in
  List.iter (apply_all rules) (trees @ doubled);
  let repeated =
    T.name_of
      { T.lhs = T.Filter (T.Pvar 0, T.Filter (T.Pvar 0, T.Rel 0));
        rhs = T.Filter (T.Pvar 0, T.Rel 0) }
  in
  check bool_t "a repeated predicate variable matches on the doubled trees" true
    (Hashtbl.mem fired repeated);
  List.iter
    (fun (r : Optimizer.Rule.t) ->
      List.iter
        (fun seed ->
          match
            with_label_base (fun () ->
                Core.Query_gen.instantiate
                  { Core.Arggen.g = Storage.Prng.create seed; cat = micro }
                  r.pattern)
          with
          | Some t -> apply_all [ r ] t
          | None -> ())
        [ 0; 1; 2 ])
    rules;
  check bool_t "most candidates fire" true (2 * Hashtbl.length fired > List.length rules);
  check Alcotest.string "substitute digest" discovered_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The lhs forms templates need, and [Align], one case each. *)
let test_lhs_equality_and_align () =
  let module S = Relalg.Scalar in
  let x = L.Get { table = "t1"; alias = "x" } and y = L.Get { table = "t2"; alias = "y" } in
  let gt col n = S.Cmp (S.Gt, S.col (Relalg.Ident.make "x" col), S.int n) in
  let fires r t = R.image micro r (H.intern t) in
  let is r t want =
    match fires r t with
    | Some n -> n == H.intern want
    | None -> false
  in
  let filter pred child = L.Filter { pred; child } in
  (* A repeated predicate variable: equal predicates only. *)
  let merge_same =
    { R.name = "SameFilter"; lhs = R.Filter (R.Pvar 0, R.Filter (R.Pvar 0, R.Var 0));
      rhs = R.Filter (R.Pvar 0, R.Var 0); sides = [] }
  in
  check bool_t "F[p0](F[p0](A)) fires on equal predicates" true
    (is merge_same (filter (gt "a" 1) (filter (gt "a" 1) x)) (filter (gt "a" 1) x));
  check bool_t "F[p0](F[p0](A)) does not fire on unequal predicates" true
    (fires merge_same (filter (gt "a" 1) (filter (gt "a" 2) x)) = None);
  (* A repeated relation variable: the same node only. *)
  let union_self =
    { R.name = "UnionSelf"; lhs = R.Union (R.Var 0, R.Var 0); rhs = R.Distinct (R.Var 0);
      sides = [] }
  in
  let x' = L.Get { table = "t1"; alias = "x2" } in
  check bool_t "U(A,A) fires on equal branches" true
    (is union_self (L.Union (x, x)) (L.Distinct x));
  check bool_t "U(A,A) does not fire on different branches" true
    (fires union_self (L.Union (x, x')) = None);
  (* An lhs conjunction splits first conjunct / rest. *)
  let split =
    { R.name = "Split"; lhs = R.Filter (R.Pand (R.Pvar 0, R.Pvar 1), R.Var 0);
      rhs = R.Filter (R.Pvar 1, R.Filter (R.Pvar 0, R.Var 0)); sides = [] }
  in
  let three = S.conj [ gt "a" 1; gt "a" 2; gt "b" 3 ] in
  check bool_t "F[p0&p1] binds the first conjunct and the rest" true
    (is split (filter three x)
       (filter (S.conj [ gt "a" 2; gt "b" 3 ]) (filter (gt "a" 1) x)));
  check bool_t "F[p0&p1] does not fire on a single conjunct" true
    (fires split (filter (gt "a" 1) x) = None);
  (* Align: the swapped join realigns its columns, and does not fire
     where the moved filter reads columns out of its new scope. *)
  let swap =
    T.to_rdsl ~name:"SwapFilteredJoin"
      { T.lhs = T.Join (0, T.Rel 0, T.Filter (T.Pvar 0, T.Rel 1));
        rhs = T.Join (0, T.Rel 1, T.Filter (T.Pvar 0, T.Rel 0)) }
  in
  let jpred =
    S.Cmp (S.Eq, S.col (Relalg.Ident.make "x" "a"), S.col (Relalg.Ident.make "y" "d"))
  in
  let join f = L.Join { kind = L.Inner; pred = jpred; left = x; right = filter f y } in
  let scoped_to_y = S.Cmp (S.Gt, S.col (Relalg.Ident.make "y" "e"), S.int 1) in
  check bool_t "Align does not fire on an ill-formed rhs" true
    (fires swap (join scoped_to_y) = None);
  let constant = S.Cmp (S.Eq, S.int 1, S.int 1) in
  check bool_t "Align restores the column order" true
    (is swap (join constant)
       (Optimizer.Rule.identity_project
          (Relalg.Props.schema_exn micro (join constant))
          (L.Join { kind = L.Inner; pred = jpred; left = y; right = filter constant x })))

(* ------------------------------------------------------------------ *)
(* The symbolic oracle                                                 *)

let verdict r =
  match R.Verify.verify r with
  | R.Verify.Sound_bounded -> "sound"
  | R.Verify.Refuted _ -> "refuted"
  | R.Verify.Unknown _ -> "unknown"

let test_oracle_sound_rules () =
  List.iter
    (fun ((name, r) : string * R.rule) ->
      check Alcotest.string (name ^ " verifies sound") "sound" (verdict r))
    Optimizer.Rules.dsl_rules

let test_oracle_discovery_sets () =
  List.iter
    (fun ((name, c) : string * Discovery.Template.candidate) ->
      check Alcotest.string (name ^ " sound") "sound"
        (verdict (Discovery.Template.to_rdsl ~name c)))
    Discovery.Template.known_sound;
  List.iter
    (fun ((name, c) : string * Discovery.Template.candidate) ->
      check Alcotest.string (name ^ " refuted") "refuted"
        (verdict (Discovery.Template.to_rdsl ~name c)))
    Discovery.Template.seeded_unsound

(* Mutation fuzzing over the whole registry (all 50 rules). Every mutant
   must be refuted except the known blind spots, which are asserted
   exactly: the semi/anti-semi widened parts are genuinely sound (the
   filter above a semi-join only sees left columns); the dropped set-op
   renames are invisible to the oracle because column naming is
   bookkeeping the symbolic model does not carry (both branches share a
   universe); and dropping GbAggPushBelowJoin's keys-from-A side is
   unsound only through a keyless aggregate's one row from an empty
   input, which the model's grouping does not produce. *)
let expected_survivors =
  [ "GbAggPushBelowJoin!drop-side:some grouping key is a column of A";
    "PushSelectBelowAntiSemiJoin!widen-part@0";
    "PushSelectBelowIntersect!drop-rename@0";
    "PushSelectBelowSemiJoin!widen-part@0";
    "SelectBelowUnion!drop-rename@0";
    "SelectBelowUnionAll!drop-rename@0" ]

let test_mutation_sweep () =
  let survivors =
    List.concat_map
      (fun ((_, r) : string * R.rule) ->
        List.filter_map
          (fun ((_, m) : string * R.rule) ->
            match R.Verify.verify m with
            | R.Verify.Refuted _ -> None
            | R.Verify.Sound_bounded -> Some m.name
            | R.Verify.Unknown why -> Some (m.name ^ "?" ^ why))
          (R.mutations r))
      Optimizer.Rules.dsl_rules
  in
  check
    (Alcotest.list Alcotest.string)
    "only the documented blind spots survive mutation" expected_survivors
    (List.sort compare survivors)

(* One mutant per ported family, caught by BOTH oracles: the symbolic one
   refutes the DSL term, and the differential pipeline catches the
   compiled mutant injected into a live registry — on the same handcrafted
   queries the fault-injection tests use. *)
let mutant_of victim tag =
  let d =
    match Optimizer.Rules.rdsl_of victim with
    | Some d -> d
    | None -> Alcotest.failf "%s is not a registered rule" victim
  in
  match List.assoc_opt tag (R.mutations d) with
  | Some (m : R.rule) -> { m with R.name = victim }
  | None -> Alcotest.failf "%s has no mutation %s" victim tag

let differential_catches victim (mutant : R.rule) =
  let rules =
    List.map
      (fun (r : Optimizer.Rule.t) ->
        if String.equal r.name victim then R.compile mutant else r)
      Optimizer.Rules.all
  in
  let fw = F.create ~rules micro in
  let query = Test_compress.fault_query victim in
  let ruleset = Result.get_ok (F.ruleset fw query) in
  check bool_t (victim ^ " mutant exercised by crafted query") true
    (F.SSet.mem victim ruleset);
  let cost = Result.get_ok (F.cost fw query) in
  let s : Su.t =
    { k = 1;
      targets = [ Su.Single victim ];
      entries = [| { Su.query; ruleset; cost } |];
      per_target = [ (Su.Single victim, [ 0 ]) ] }
  in
  let report = Core.Correctness.run fw s (C.baseline fw s) in
  check int_t (victim ^ " execution errors") 0 (List.length report.errors);
  report.bugs <> []

let caught_by_both (victim, tag) =
  let mutant = mutant_of victim tag in
  (match R.Verify.verify mutant with
  | R.Verify.Refuted _ -> ()
  | v ->
    Alcotest.failf "%s!%s not refuted symbolically: %s" victim tag
      (R.Verify.verdict_to_string v));
  check bool_t
    (Printf.sprintf "%s!%s caught differentially" victim tag)
    true
    (differential_catches victim mutant)

let test_select_family_mutant_caught_by_both () =
  caught_by_both ("SelectMerge", "drop-conjunct@0")

let test_join_family_mutant_caught_by_both () =
  caught_by_both ("SimplifyLeftOuterJoin", "drop-side:p1 null-rejecting on B")

(* The §3 fault family that motivated the oracle: pushing the
   right-scoped conjuncts below the padded side of a left outer join —
   [Core.Faults]' term for that fault, refuted without an executor. *)
let contains sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_buggy_loj_right_push_refuted () =
  let buggy = Core.Faults.term "PushSelectBelowLeftOuterJoin" in
  (match R.Verify.verify buggy with
  | R.Verify.Refuted cx ->
    (* The counterexample is the paper's scenario: an unmatched left row
       whose padded columns fail the pushed predicate. *)
    check bool_t "counterexample mentions a null-padded row" true
      (List.exists (contains "null") [ cx.R.Verify.lhs_rows; cx.R.Verify.rhs_rows ])
  | v ->
    Alcotest.failf "buggy LOJ right-push not refuted: %s"
      (R.Verify.verdict_to_string v));
  check bool_t "buggy LOJ right-push caught differentially" true
    (differential_catches "PushSelectBelowLeftOuterJoin" buggy)

(* All four seeded faults are DSL terms: each is refuted by the symbolic
   oracle and caught by the differential pipeline on its crafted query. *)
let test_faults_refuted_and_caught () =
  List.iter
    (fun victim ->
      let buggy = Core.Faults.term victim in
      (match R.Verify.verify buggy with
      | R.Verify.Refuted _ -> ()
      | v ->
        Alcotest.failf "fault %s not refuted symbolically: %s" victim
          (R.Verify.verdict_to_string v));
      check bool_t (victim ^ " fault caught differentially") true
        (differential_catches victim buggy))
    Core.Faults.names

(* Rules build their outputs over the nodes they matched, interning only
   the operators they create: every node [apply] returns must be the
   canonical node of its tree, for every registered rule, every seeded
   fault and every discovered rule, at every subtree of random trees
   and of instantiations of each rule's own pattern. *)
let canonical_outputs rules trees =
  let outputs = ref 0 in
  List.iter
    (fun t ->
      L.fold
        (fun () sub ->
          let n = H.intern sub in
          List.iter
            (fun (r : Optimizer.Rule.t) ->
              List.iter
                (fun (n' : H.node) ->
                  incr outputs;
                  if not (n' == H.intern n'.repr) then
                    Alcotest.failf "%s returned a non-canonical node on\n%s" r.name
                      (L.to_string sub))
                (r.apply micro n))
            rules)
        () t)
    trees;
  !outputs

let own_instances seeds (r : Optimizer.Rule.t) =
  List.filter_map
    (fun seed ->
      Core.Query_gen.instantiate
        { Core.Arggen.g = Storage.Prng.create seed; cat = micro }
        r.pattern)
    seeds

let test_outputs_canonical () =
  let rules =
    Optimizer.Rules.all @ List.map (fun name -> R.compile (Core.Faults.term name)) Core.Faults.names
  in
  let random = List.init 60 (random_tree micro) in
  let trees = random @ List.concat_map (own_instances (List.init 4 Fun.id)) rules in
  check bool_t "rules fired" true (canonical_outputs rules trees > 100);
  (* Discovered rules see the random trees (and their filter-doubled
     copies) together, and their own pattern's instances one rule at a
     time. *)
  let discovered = List.map discovered_rule (discovered_candidates ()) in
  let shared = canonical_outputs discovered (random @ List.map double_filters random) in
  let own =
    List.fold_left
      (fun acc r -> acc + canonical_outputs [ r ] (own_instances [ 0 ] r))
      0 discovered
  in
  check bool_t "discovered rules fired" true (shared + own > 1000)

(* dune runtest fails if any registered rule would fire on a root its own
   pattern rejects (satellite: the [Rule.make] mismatch probe). Deltas,
   not absolutes, so this test composes with the other metrics tests. *)
let test_pattern_mismatch_gate () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let total () = Obs.Metrics.counter_total "optimizer.rule.pattern_mismatch" in
  let before = total () in
  for seed = 0 to 40 do
    let t = random_tree micro seed in
    List.iter
      (fun (r : Optimizer.Rule.t) -> ignore (r.apply micro (H.intern t)))
      Optimizer.Rules.all
  done;
  check int_t "no registered rule trips the pattern-mismatch probe" before
    (total ());
  (* Positive control: a rule declaring a Distinct pattern while its apply
     rewrites any root must trip the probe. *)
  let bad =
    Optimizer.Rule.make ~fingerprint:"TestDslBadProbeControl" "TestDslBadProbeControl"
      (Dsl.Pattern.Op (L.KDistinct, [ Dsl.Pattern.Any ]))
      (fun _ n -> [ n ])
  in
  ignore (bad.apply micro (H.intern (random_tree micro 1)));
  check bool_t "probe trips on a mis-declared rule" true
    (Obs.Metrics.counter_total ~label:"TestDslBadProbeControl"
       "optimizer.rule.pattern_mismatch"
    >= 1);
  Obs.Metrics.set_enabled was

let suite =
  [ ( "dsl",
    [ Alcotest.test_case "golden substitute digest of every registered rule" `Quick
        test_golden_substitutes;
      QCheck_alcotest.to_alcotest prop_compiled_is_image;
      Alcotest.test_case "every DSL-backed registered rule verifies sound" `Quick
        test_oracle_sound_rules;
      Alcotest.test_case "discovered-rule parity digest" `Quick
        test_discovered_parity;
      Alcotest.test_case "lhs equality, lhs conjunct split and Align" `Quick
        test_lhs_equality_and_align;
      Alcotest.test_case "discovery reference sets verify as expected" `Quick
        test_oracle_discovery_sets;
      Alcotest.test_case "mutation sweep refutes all but the documented blind spots"
        `Quick test_mutation_sweep;
      Alcotest.test_case "select-family mutant caught by both oracles" `Quick
        test_select_family_mutant_caught_by_both;
      Alcotest.test_case "join-family mutant caught by both oracles" `Quick
        test_join_family_mutant_caught_by_both;
      Alcotest.test_case "buggy LOJ right-push refuted and caught" `Quick
        test_buggy_loj_right_push_refuted;
      Alcotest.test_case "all four faults refuted and caught" `Quick
        test_faults_refuted_and_caught;
      Alcotest.test_case "pattern-mismatch probe gates the registry" `Quick
        test_pattern_mismatch_gate;
      Alcotest.test_case "rule outputs are canonical nodes" `Quick
        test_outputs_canonical ] ) ]
