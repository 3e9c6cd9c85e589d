(* Discovery subsystem: template normalization laws (QCheck) and an
   end-to-end determinism check of the mine→validate→rank→promote
   driver across pool sizes. *)

module T = Discovery.Template
module V = Discovery.Validate
module D = Discovery.Driver

(* ------------------------------------------------------------------ *)
(* Random template generators                                          *)
(* ------------------------------------------------------------------ *)

let gen_pred =
  QCheck2.Gen.(
    oneof
      [ map (fun i -> T.Pvar i) (int_range 0 2);
        map2 (fun a b -> T.Pand (a, b)) (int_range 0 2) (int_range 0 2) ])

let gen_node =
  QCheck2.Gen.(
    sized_size (int_range 0 3) @@ fix (fun self n ->
        let leaf = map (fun i -> T.Rel i) (int_range 0 1) in
        if n <= 0 then leaf
        else
          let sub = self (n - 1) in
          let split = self (n / 2) in
          oneof
            [ leaf;
              map2 (fun p t -> T.Filter (p, t)) gen_pred sub;
              map3 (fun j a b -> T.Join (j, a, b)) (int_range 0 1) split split;
              map (fun t -> T.Distinct t) sub;
              map2 (fun a b -> T.UnionAll (a, b)) split split;
              map2 (fun a b -> T.Union (a, b)) split split;
              map2 (fun a b -> T.Intersect (a, b)) split split;
              map2 (fun a b -> T.Except (a, b)) split split ]))

let gen_candidate =
  QCheck2.Gen.map2 (fun lhs rhs -> { T.lhs; rhs }) gen_node gen_node

let print_candidate c = T.display c

(* Injective renaming of every metavariable class. Offsets keep the
   maps injective without tracking which indices actually occur. *)
let rename ~rel ~pred ~join c =
  let rp = function
    | T.Pvar i -> T.Pvar (pred i)
    | T.Pand (a, b) -> T.Pand (pred a, pred b)
  in
  let rec rn = function
    | T.Rel i -> T.Rel (rel i)
    | T.Filter (p, t) -> T.Filter (rp p, rn t)
    | T.Join (j, a, b) -> T.Join (join j, rn a, rn b)
    | T.Distinct t -> T.Distinct (rn t)
    | T.UnionAll (a, b) -> T.UnionAll (rn a, rn b)
    | T.Union (a, b) -> T.Union (rn a, rn b)
    | T.Intersect (a, b) -> T.Intersect (rn a, rn b)
    | T.Except (a, b) -> T.Except (rn a, rn b)
  in
  { T.lhs = rn c.T.lhs; rhs = rn c.T.rhs }

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let prop_standardize_idempotent =
  QCheck2.Test.make ~name:"standardize is idempotent" ~count:500
    ~print:print_candidate gen_candidate (fun c ->
      let once = T.standardize c in
      T.equal once (T.standardize once))

let prop_swap_same_normal_form =
  QCheck2.Test.make ~name:"swapped sides share a normal form" ~count:500
    ~print:print_candidate gen_candidate (fun c ->
      T.equal (T.standardize c) (T.standardize { T.lhs = c.T.rhs; rhs = c.T.lhs }))

let prop_rename_same_normal_form =
  QCheck2.Test.make ~name:"injectively renamed candidates share a normal form"
    ~count:500 ~print:print_candidate gen_candidate (fun c ->
      let renamed =
        rename ~rel:(fun i -> 1 - i) ~pred:(fun i -> i + 3)
          ~join:(fun i -> i + 5) c
      in
      T.equal (T.standardize c) (T.standardize renamed))

(* ------------------------------------------------------------------ *)
(* Unit checks on the reference sets                                   *)
(* ------------------------------------------------------------------ *)

let test_reference_sets () =
  List.iter
    (fun (name, c) ->
      Alcotest.(check bool)
        (name ^ " is standardized") true
        (T.equal c (T.standardize c)))
    (T.known_sound @ T.seeded_unsound);
  let cands = T.enumerate T.Setops ~max_nodes:2 in
  List.iter
    (fun (name, seeded) ->
      Alcotest.(check bool)
        (name ^ " enumerated") true
        (List.exists (fun c -> T.equal c seeded) cands))
    T.seeded_unsound;
  (* Dedup is complete: no two enumerated candidates share a normal
     form. *)
  let tbl = Hashtbl.create 512 in
  List.iter
    (fun c ->
      let normal = T.standardize c in
      Alcotest.(check bool) "no duplicate normal forms" false
        (Hashtbl.mem tbl normal);
      Hashtbl.add tbl normal ())
    cands

(* ------------------------------------------------------------------ *)
(* End-to-end: the driver report is byte-identical across pool sizes   *)
(* ------------------------------------------------------------------ *)

let small_config =
  {
    D.default_config with
    alphabet = T.Basic;
    params = { V.default_params with trials = 4 };
    top_k = 2;
    rank_budget = 64;
  }

let test_driver_jobs_deterministic () =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
  let sequential = D.run small_config in
  let pool = Par.Pool.create ~jobs:4 () in
  let parallel = D.run ~pool small_config in
  Alcotest.(check string)
    "report identical for jobs 1 and 4"
    (Obs.Json.to_string (D.report_json sequential))
    (Obs.Json.to_string (D.report_json parallel));
  Alcotest.(check bool)
    "rediscovered at least one known-sound rewrite" true
    (sequential.D.rediscovered <> []);
  Alcotest.(check (list string))
    "every seeded-unsound candidate refuted" [] sequential.D.seeded_survived

let suite =
  [ ( "discovery.template",
      [ QCheck_alcotest.to_alcotest prop_standardize_idempotent;
        QCheck_alcotest.to_alcotest prop_swap_same_normal_form;
        QCheck_alcotest.to_alcotest prop_rename_same_normal_form;
        Alcotest.test_case "reference sets" `Quick test_reference_sets ] );
    ( "discovery.driver",
      [ Alcotest.test_case "determinism across jobs" `Slow
          test_driver_jobs_deterministic ] ) ]
