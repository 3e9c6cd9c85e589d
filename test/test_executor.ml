(* Executor tests: handcrafted physical plans over a tiny catalog with
   known contents, covering NULL semantics of every join and set
   operation, aggregates, sorting, and the equivalence of the three join
   implementations. *)
open Storage
module P = Optimizer.Physical
module L = Relalg.Logical
module S = Relalg.Scalar
module A = Relalg.Aggregate
module RS = Executor.Resultset
module Ident = Relalg.Ident

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* l(k int nullable, v string): (1,a) (2,b) (NULL,c) (2,d)
   r(k int nullable, w string): (2,x) (3,y) (NULL,z) *)
let cat =
  let open Schema in
  let lt =
    make "l" [ column ~nullable:true "k" Datatype.TInt; column "v" Datatype.TString ]
  in
  let rt =
    make "r" [ column ~nullable:true "k" Datatype.TInt; column "w" Datatype.TString ]
  in
  Catalog.of_tables
    [ Table.create lt
        [| [| Value.Int 1; Value.Str "a" |];
           [| Value.Int 2; Value.Str "b" |];
           [| Value.Null; Value.Str "c" |];
           [| Value.Int 2; Value.Str "d" |] |];
      Table.create rt
        [| [| Value.Int 2; Value.Str "x" |];
           [| Value.Int 3; Value.Str "y" |];
           [| Value.Null; Value.Str "z" |] |] ]

let scan_l = P.TableScan { table = "l"; alias = "l" }
let scan_r = P.TableScan { table = "r"; alias = "r" }
let lk = Ident.make "l" "k"
let lv = Ident.make "l" "v"
let rk = Ident.make "r" "k"
let run plan = Result.get_ok (Executor.Exec.run cat plan)
let rows plan = RS.row_count (run plan)
let join_pred = S.eq (S.col lk) (S.col rk)

let nlj kind = P.NestedLoopsJoin { kind; pred = join_pred; left = scan_l; right = scan_r }

let hj kind =
  P.HashJoin
    { kind; left_keys = [ lk ]; right_keys = [ rk ]; residual = S.true_;
      left = scan_l; right = scan_r }

(* Expected with SQL NULL semantics (NULL keys never match):
   inner: l(2,b),(2,d) x r(2,x) -> 2 rows
   left outer: 2 matches + unmatched (1,a),(NULL,c) -> 4
   right outer: 2 + unmatched (3,y),(NULL,z) -> 4
   full outer: 2 + 2 + 2 -> 6
   semi: (2,b),(2,d) -> 2 ; anti: (1,a),(NULL,c) -> 2 *)
let expected = [ (L.Inner, 2); (L.LeftOuter, 4); (L.RightOuter, 4); (L.FullOuter, 6); (L.Semi, 2); (L.AntiSemi, 2) ]

let test_nlj_kinds () =
  List.iter
    (fun (kind, n) ->
      check int_t (L.kind_name (L.KJoin kind) ^ " rows") n (rows (nlj kind)))
    expected

let test_hash_kinds () =
  List.iter
    (fun (kind, n) ->
      check int_t ("hash " ^ L.kind_name (L.KJoin kind)) n (rows (hj kind)))
    expected

let test_hash_equals_nlj () =
  List.iter
    (fun (kind, _) ->
      check bool_t ("hash = nlj for " ^ L.kind_name (L.KJoin kind)) true
        (RS.equal_bag (run (nlj kind)) (run (hj kind))))
    expected

let test_merge_join () =
  let sorted keys child = P.SortOp { keys = List.map (fun k -> (k, L.Asc)) keys; child } in
  let mj =
    P.MergeJoin
      { left_keys = [ lk ]; right_keys = [ rk ]; residual = S.true_;
        left = sorted [ lk ] scan_l; right = sorted [ rk ] scan_r }
  in
  check bool_t "merge = nlj inner" true (RS.equal_bag (run mj) (run (nlj L.Inner)))

let test_cross_join () =
  let cross = P.NestedLoopsJoin { kind = L.Cross; pred = S.true_; left = scan_l; right = scan_r } in
  check int_t "cross product" 12 (rows cross)

let test_outer_join_padding () =
  let res = run (nlj L.LeftOuter) in
  let padded =
    Array.to_list (RS.rows res)
    |> List.filter (fun row -> Value.is_null row.(2) && Value.is_null row.(3))
  in
  check int_t "two padded rows" 2 (List.length padded)

let test_residual () =
  let hjr =
    P.HashJoin
      { kind = L.Inner; left_keys = [ lk ]; right_keys = [ rk ];
        residual = S.eq (S.col lv) (S.Const (Value.Str "b"));
        left = scan_l; right = scan_r }
  in
  check int_t "residual filters matches" 1 (rows hjr)

let test_filter_3vl () =
  (* k > 1 keeps (2,b),(2,d); NULL row is UNKNOWN, not kept. *)
  let plan = P.FilterOp { pred = S.Cmp (S.Gt, S.col lk, S.int 1); child = scan_l } in
  check int_t "unknown rows dropped" 2 (rows plan);
  let nn = P.FilterOp { pred = S.IsNull (S.col lk); child = scan_l } in
  check int_t "is null" 1 (rows nn);
  let nn2 = P.FilterOp { pred = S.Not (S.Cmp (S.Gt, S.col lk, S.int 1)); child = scan_l } in
  check int_t "NOT of unknown stays unknown" 1 (rows nn2)

let test_compute () =
  let out = Ident.make "p" "twice" in
  let plan =
    P.ComputeScalar { cols = [ (out, S.Arith (S.Mul, S.col lk, S.int 2)) ]; child = scan_l }
  in
  let res = run plan in
  check int_t "rows preserved" 4 (RS.row_count res);
  check bool_t "null propagates" true
    (Array.exists (fun row -> Value.is_null row.(0)) (RS.rows res));
  check bool_t "doubled" true
    (Array.exists (fun row -> Value.equal row.(0) (Value.Int 4)) (RS.rows res))

let gid = Ident.make "g" "out"

let test_aggregates () =
  let agg a = P.HashAggregate { keys = []; aggs = [ (gid, a) ]; child = scan_l } in
  let single plan = (RS.rows (run plan)).(0) in
  check bool_t "count star" true (Value.equal (single (agg A.CountStar)).(0) (Value.Int 4));
  check bool_t "count skips null" true
    (Value.equal (single (agg (A.Count (S.col lk)))).(0) (Value.Int 3));
  check bool_t "sum skips null" true
    (Value.equal (single (agg (A.Sum (S.col lk)))).(0) (Value.Int 5));
  check bool_t "min" true (Value.equal (single (agg (A.Min (S.col lk)))).(0) (Value.Int 1));
  check bool_t "max" true (Value.equal (single (agg (A.Max (S.col lk)))).(0) (Value.Int 2));
  check bool_t "avg" true
    (Value.equal (single (agg (A.Avg (S.col lk)))).(0) (Value.Float (5.0 /. 3.0)))

let test_group_by_keys () =
  let plan = P.HashAggregate { keys = [ lk ]; aggs = [ (gid, A.CountStar) ]; child = scan_l } in
  let res = run plan in
  (* groups: 1, 2, NULL -> NULLs group together *)
  check int_t "three groups" 3 (RS.row_count res);
  check bool_t "null group counted" true
    (Array.exists
       (fun row -> Value.is_null row.(0) && Value.equal row.(1) (Value.Int 1))
       (RS.rows res));
  check bool_t "group of two" true
    (Array.exists
       (fun row -> Value.equal row.(0) (Value.Int 2) && Value.equal row.(1) (Value.Int 2))
       (RS.rows res))

let test_global_agg_on_empty () =
  let empty = P.FilterOp { pred = S.Const (Value.Bool false); child = scan_l } in
  let plan =
    P.HashAggregate
      { keys = []; aggs = [ (gid, A.CountStar); (Ident.make "g" "s", A.Sum (S.col lk)) ];
        child = empty }
  in
  let res = run plan in
  check int_t "one fabricated row" 1 (RS.row_count res);
  let row = (RS.rows res).(0) in
  check bool_t "count 0" true (Value.equal row.(0) (Value.Int 0));
  check bool_t "sum NULL" true (Value.is_null row.(1));
  (* ...but grouped aggregation over empty input is empty. *)
  let grouped = P.HashAggregate { keys = [ lk ]; aggs = [ (gid, A.CountStar) ]; child = empty } in
  check int_t "no groups" 0 (rows grouped)

let test_stream_equals_hash_agg () =
  let keys = [ lk ] in
  let hash = P.HashAggregate { keys; aggs = [ (gid, A.CountStar) ]; child = scan_l } in
  let stream =
    P.StreamAggregate
      { keys; aggs = [ (gid, A.CountStar) ];
        child = P.SortOp { keys = [ (lk, L.Asc) ]; child = scan_l } }
  in
  check bool_t "stream = hash" true (RS.equal_bag (run hash) (run stream))

let test_sort_and_limit () =
  let sorted = P.SortOp { keys = [ (lk, L.Asc) ]; child = scan_l } in
  let res = run sorted in
  check bool_t "nulls first ascending" true (Value.is_null (RS.rows res).(0).(0));
  let desc = P.SortOp { keys = [ (lk, L.Desc) ]; child = scan_l } in
  check bool_t "desc starts at 2" true
    (Value.equal (RS.rows (run desc)).(0).(0) (Value.Int 2));
  check int_t "limit" 2 (rows (P.LimitOp { count = 2; child = sorted }));
  check int_t "limit beyond size" 4 (rows (P.LimitOp { count = 99; child = scan_l }))

(* Set operations: project both sides to the nullable int column. *)
let proj_k scan col = P.ComputeScalar { cols = [ (Ident.make "s" "k", S.col col) ]; child = scan }
let left_k = proj_k scan_l lk
let right_k = proj_k scan_r rk

let test_set_operations () =
  (* l.k = {1,2,NULL,2}; r.k = {2,3,NULL} *)
  check int_t "concat" 7 (rows (P.Concat (left_k, right_k)));
  check int_t "union distinct null-safe" 4 (rows (P.HashUnion (left_k, right_k)));
  check int_t "intersect {2, NULL}" 2 (rows (P.HashIntersect (left_k, right_k)));
  check int_t "except {1}" 1 (rows (P.HashExcept (left_k, right_k)));
  check int_t "distinct" 3 (rows (P.HashDistinct left_k))

let test_exec_errors () =
  check bool_t "unknown table" true
    (Result.is_error (Executor.Exec.run cat (P.TableScan { table = "zzz"; alias = "q" })));
  check bool_t "unknown column" true
    (Result.is_error
       (Executor.Exec.run cat
          (P.FilterOp { pred = S.IsNull (S.col (Ident.make "q" "zzz")); child = scan_l })))

let test_resultset_diff () =
  let r1 = run scan_l and r2 = run (P.LimitOp { count = 3; child = scan_l }) in
  check bool_t "bag equality reflexive" true (RS.equal_bag r1 r1);
  check bool_t "different sizes differ" false (RS.equal_bag r1 r2);
  check bool_t "first difference found" true (RS.first_difference r1 r2 <> None);
  check bool_t "no diff for equal" true (RS.first_difference r1 r1 = None);
  check bool_t "diverges None iff equal" true (RS.diverges r1 r1 = None);
  (match RS.diverges r1 r2 with
  | None -> Alcotest.fail "expected a diff"
  | Some d ->
    check int_t "missing rows" 1 d.missing_count;
    check int_t "extra rows" 0 d.extra_count)

(* Every operator family once: the compiled path must agree with the
   interpreter row-for-row (as bags). *)
let agreement_plans =
  List.map (fun (k, _) -> nlj k) expected
  @ List.map (fun (k, _) -> hj k) expected
  @ [ P.FilterOp { pred = S.Cmp (S.Gt, S.col lk, S.int 1); child = scan_l };
      P.ComputeScalar
        { cols = [ (Ident.make "p" "t", S.Arith (S.Mul, S.col lk, S.int 2)) ];
          child = scan_l };
      P.HashAggregate
        { keys = [ lk ];
          aggs = [ (gid, A.Sum (S.col lk)); (Ident.make "g" "a", A.Avg (S.col lk)) ];
          child = scan_l };
      P.HashAggregate { keys = []; aggs = [ (gid, A.CountStar) ]; child = scan_l };
      P.StreamAggregate
        { keys = [ lk ]; aggs = [ (gid, A.CountStar) ];
          child = P.SortOp { keys = [ (lk, L.Asc) ]; child = scan_l } };
      P.SortOp { keys = [ (lk, L.Desc); (lv, L.Asc) ]; child = scan_l };
      P.Concat (left_k, right_k);
      P.HashUnion (left_k, right_k);
      P.HashIntersect (left_k, right_k);
      P.HashExcept (left_k, right_k);
      P.HashDistinct left_k;
      P.LimitOp { count = 2; child = P.SortOp { keys = [ (lk, L.Asc) ]; child = scan_l } }
    ]

let test_compiled_equals_interpreted () =
  List.iteri
    (fun i plan ->
      let compiled = Result.get_ok (Executor.Exec.run cat plan) in
      let interpreted = Result.get_ok (Executor.Exec.run_interpreted cat plan) in
      check bool_t (Printf.sprintf "plan %d agrees" i) true
        (RS.equal_bag compiled interpreted))
    agreement_plans

(* Unknown columns are a compile-time error: the compiled path reports
   them before producing a single row, even when the input is empty and
   the interpreter would therefore never notice. *)
let test_compile_time_unknown_column () =
  let empty = P.FilterOp { pred = S.Const (Value.Bool false); child = scan_l } in
  let bad =
    P.FilterOp { pred = S.IsNull (S.col (Ident.make "q" "zzz")); child = empty }
  in
  check bool_t "interpreter never evaluates the bad column" true
    (Result.is_ok (Executor.Exec.run_interpreted cat bad));
  check bool_t "compiled path rejects the plan" true
    (Result.is_error (Executor.Exec.run cat bad));
  (* And the error is raised by Batch.plan itself, before any row. *)
  check bool_t "raised at Batch.plan" true
    (match Executor.Batch.plan cat bad with
    | exception Executor.Batch.Compile_error _ -> true
    | _ -> false)

let test_fingerprint () =
  let fp = P.fingerprint in
  check bool_t "equal plans, equal fingerprints" true
    (fp (nlj L.Inner) = fp (nlj L.Inner));
  check bool_t "join kind distinguishes" true
    (fp (nlj L.Inner) <> fp (nlj L.LeftOuter));
  check bool_t "deep scalar change distinguishes" true
    (fp (P.FilterOp { pred = S.Cmp (S.Gt, S.col lk, S.int 1); child = scan_l })
    <> fp (P.FilterOp { pred = S.Cmp (S.Gt, S.col lk, S.int 2); child = scan_l }));
  check bool_t "non-negative" true (fp (hj L.FullOuter) >= 0)

(* Ordered, not bag: byte-for-byte output is the [--jobs N] contract,
   and the two executor paths share every relational operator, so they
   must agree row for row. *)
let rows_identical a b =
  RS.same_cols a b
  && RS.row_count a = RS.row_count b
  && Array.for_all2
       (fun x y -> RS.compare_rows x y = 0)
       (RS.rows a) (RS.rows b)

let test_batch_rows_identical () =
  List.iteri
    (fun i plan ->
      let want = Result.get_ok (Executor.Exec.run_interpreted cat plan) in
      let got = Result.get_ok (Executor.Exec.run cat plan) in
      check bool_t (Printf.sprintf "plan %d" i) true (rows_identical want got))
    agreement_plans

let test_batch_empty_input () =
  let empty = P.FilterOp { pred = S.Const (Value.Bool false); child = scan_l } in
  let plans =
    [ P.FilterOp { pred = S.IsNull (S.col lk); child = empty };
      P.ComputeScalar
        { cols = [ (Ident.make "p" "t", S.Arith (S.Mul, S.col lk, S.int 2)) ];
          child = empty };
      P.SortOp { keys = [ (lk, L.Asc) ]; child = empty };
      P.HashDistinct empty;
      P.LimitOp { count = 5; child = empty };
      P.HashJoin
        { kind = L.Inner; left_keys = [ lk ]; right_keys = [ rk ];
          residual = S.true_; left = empty; right = scan_r } ]
  in
  List.iteri
    (fun i plan ->
      check int_t (Printf.sprintf "empty plan %d" i) 0 (rows plan))
    plans;
  (* Global aggregate over empty input still fabricates its one row. *)
  let agg =
    P.HashAggregate { keys = []; aggs = [ (gid, A.CountStar) ]; child = empty }
  in
  check int_t "empty global agg" 1 (rows agg)

(* Batch kernels must fail like a sequential row scan: same message,
   and the *lowest* erroring row's message. [l.v + 1] errors on every
   row; guarding it behind [l.k = 2] errors only on rows 1 and 3
   (0-based), so the reported error must be row 1's. *)
let test_batch_error_agreement () =
  let bad_all =
    P.FilterOp
      { pred = S.Cmp (S.Gt, S.Arith (S.Add, S.col lv, S.int 1), S.int 0);
        child = scan_l }
  in
  let bad_some =
    P.FilterOp
      { pred =
          S.And
            ( S.Cmp (S.Eq, S.col lk, S.int 2),
              S.Cmp (S.Gt, S.Arith (S.Add, S.col lv, S.int 1), S.int 0) );
        child = scan_l }
  in
  List.iteri
    (fun i plan ->
      match Executor.Exec.run_interpreted cat plan with
      | Ok _ -> Alcotest.fail "interpreter unexpectedly succeeded"
      | Error want -> (
        match Executor.Exec.run cat plan with
        | Ok _ -> Alcotest.fail "batch unexpectedly succeeded"
        | Error got -> check Alcotest.string (Printf.sprintf "error %d" i) want got))
    [ bad_all; bad_some ]

(* Join residuals: the batch path evaluates them as one kernel batch over
   every candidate pair, the interpreter pair by pair; both must keep the
   same pairs in the same order and die on the same pair.
   a(k, s): (1,p) (2,q) (NULL,t) (1,u) (3,w)
   b(k, n, w): (2,7,x) (1,0,y) (1,9,z) (1,NULL,v) (NULL,8,n) (3,NULL,m)
   Key candidates: a0 and a3 -> b1 b2 b3; a1 -> b0; a4 -> b5. *)
let rcat =
  let open Schema in
  let at =
    make "a" [ column ~nullable:true "k" Datatype.TInt; column "s" Datatype.TString ]
  in
  let bt =
    make "b"
      [ column ~nullable:true "k" Datatype.TInt;
        column ~nullable:true "n" Datatype.TInt;
        column "w" Datatype.TString ]
  in
  let i x = Value.Int x and str x = Value.Str x in
  Catalog.of_tables
    [ Table.create at
        [| [| i 1; str "p" |]; [| i 2; str "q" |]; [| Value.Null; str "t" |];
           [| i 1; str "u" |]; [| i 3; str "w" |] |];
      Table.create bt
        [| [| i 2; i 7; str "x" |]; [| i 1; i 0; str "y" |];
           [| i 1; i 9; str "z" |]; [| i 1; Value.Null; str "v" |];
           [| Value.Null; i 8; str "n" |]; [| i 3; Value.Null; str "m" |] |] ]

let test_residual_parity () =
  let scan t = P.TableScan { table = t; alias = t } in
  let ak = Ident.make "a" "k" and bk = Ident.make "b" "k" in
  let bn = Ident.make "b" "n" and bw = Ident.make "b" "w" in
  let sorted key t = P.SortOp { keys = [ (key, L.Asc) ]; child = scan t } in
  let joins residual =
    [ ( "hash inner",
        P.HashJoin
          { kind = L.Inner; left_keys = [ ak ]; right_keys = [ bk ]; residual;
            left = scan "a"; right = scan "b" } );
      ( "hash left outer",
        P.HashJoin
          { kind = L.LeftOuter; left_keys = [ ak ]; right_keys = [ bk ];
            residual; left = scan "a"; right = scan "b" } );
      ( "merge",
        P.MergeJoin
          { left_keys = [ ak ]; right_keys = [ bk ]; residual;
            left = sorted ak "a"; right = sorted bk "b" } ) ]
  in
  (* NOT over a string raises with the value in the message, so the
     message names the pair. The guard [b.n > 4] is FALSE for b1 and
     NULL for b3/b5, so a0's pairs with b2 then b3 raise first (b2's
     message), before a1's pair with b0. *)
  let raising = S.And (S.Cmp (S.Gt, S.col bn, S.int 4), S.Not (S.col bw)) in
  List.iter
    (fun (name, plan) ->
      match
        (Executor.Exec.run_interpreted rcat plan, Executor.Exec.run rcat plan)
      with
      | Error want, Error got ->
        check Alcotest.string (name ^ ": lowest erroring pair") want got;
        check Alcotest.string (name ^ ": pair (a0, b2)")
          "execution type error: Eval: expected boolean, got 'z'" got
      | _ -> Alcotest.fail (name ^ ": both paths must fail"))
    (joins raising);
  (* [b.n > 8] is NULL for b3 and b5: dropped like FALSE. Only b2
     matches (for a0 and a3); the outer join pads a1, a2 and a4 — a4's
     one candidate is NULL. *)
  let nullish = S.Cmp (S.Gt, S.col bn, S.int 8) in
  List.iter2
    (fun (name, plan) (n, padded) ->
      let want = Result.get_ok (Executor.Exec.run_interpreted rcat plan) in
      let got = Result.get_ok (Executor.Exec.run rcat plan) in
      check bool_t (name ^ ": rows identical") true (rows_identical want got);
      check int_t (name ^ ": rows") n (RS.row_count got);
      check int_t (name ^ ": padded") padded
        (Array.fold_left
           (fun c row -> if Value.is_null row.(4) then c + 1 else c)
           0 (RS.rows got)))
    (joins nullish)
    [ (2, 0); (5, 3); (2, 0) ]

(* The disk tier behind the fingerprint result cache: a store on miss,
   a bag-identical serve once the memory tier is gone. *)
let test_result_cache_disk () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qtr-test-rcache-%d" (Unix.getpid ()))
  in
  let dc = Storage.Diskcache.create ~dir () in
  Executor.Cache.clear ();
  Executor.Cache.set_disk (Some (dc, "testcat"));
  Fun.protect
    ~finally:(fun () ->
      Executor.Cache.set_disk None;
      Executor.Cache.clear ())
    (fun () ->
      let plan = nlj L.Inner in
      let r1 = Result.get_ok (Executor.Cache.run cat plan) in
      check bool_t "stored on disk" true
        (Storage.Diskcache.entries dc ~ns:"results" > 0);
      Executor.Cache.clear ();
      (* memory tier gone *)
      let r2 = Result.get_ok (Executor.Cache.run cat plan) in
      check bool_t "disk hit bag-identical" true (RS.equal_bag r1 r2);
      let cold = Result.get_ok (Executor.Exec.run cat plan) in
      check bool_t "disk hit matches cold run" true (RS.equal_bag r2 cold))

(* [cat]'s schema with other contents. *)
let cat2 =
  let open Schema in
  let lt =
    make "l" [ column ~nullable:true "k" Datatype.TInt; column "v" Datatype.TString ]
  in
  let rt =
    make "r" [ column ~nullable:true "k" Datatype.TInt; column "w" Datatype.TString ]
  in
  Catalog.of_tables
    [ Table.create lt [| [| Value.Int 7; Value.Str "q" |] |];
      Table.create rt [| [| Value.Int 7; Value.Str "r" |] |] ]

let test_result_cache () =
  Executor.Cache.clear ();
  let plan = nlj L.Inner in
  let r1 = Result.get_ok (Executor.Cache.run cat plan) in
  let r2 = Result.get_ok (Executor.Cache.run cat plan) in
  check bool_t "hit returns the memoized result" true (r1 == r2);
  let cold = Result.get_ok (Executor.Exec.run cat plan) in
  check bool_t "hit is bag-identical to a cold run" true (RS.equal_bag r2 cold);
  (* A different catalog invalidates: same structural plan, other data. *)
  let other = Result.get_ok (Executor.Cache.run cat2 plan) in
  check bool_t "catalog change misses" true (not (RS.equal_bag other r2));
  check int_t "fresh catalog result" 1 (RS.row_count other);
  Executor.Cache.clear ()

(* Run [f] with metrics on; returns how far [counter] moved. *)
let counted counter f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) @@ fun () ->
  let c = Obs.Metrics.counter counter in
  let before = Obs.Metrics.counter_value c in
  f ();
  Obs.Metrics.counter_value c - before

let memo_hits f =
  counted "executor.subplan_memo.hits" (fun () ->
      List.iter (fun (c, p) -> ignore (Executor.Cache.run c p)) f)

(* The subplan memo behind the result cache: a subtree shared by two
   plans runs once, and no entry outlives [Cache.clear] or a switch of
   catalog. *)
let test_subplan_memo_lifetime () =
  Fun.protect ~finally:Executor.Cache.clear @@ fun () ->
  let shared = hj L.Inner in
  let sorted = P.SortOp { keys = [ (lk, L.Desc) ]; child = shared } in
  let distinct = P.HashDistinct shared in
  Executor.Cache.clear ();
  check int_t "first plan fills the memo" 0 (memo_hits [ (cat, sorted) ]);
  check int_t "second plan is served the shared join" 1
    (memo_hits [ (cat, distinct) ]);
  Executor.Cache.clear ();
  check int_t "nothing survives clear" 0 (memo_hits [ (cat, sorted) ]);
  check int_t "nothing survives a catalog switch" 0 (memo_hits [ (cat2, distinct) ]);
  check bool_t "other catalog, own rows" true
    (RS.equal_bag
       (Result.get_ok (Executor.Cache.run cat2 distinct))
       (Result.get_ok (Executor.Exec.run_interpreted cat2 distinct)));
  check int_t "nor a switch back" 0 (memo_hits [ (cat, distinct) ])

(* A wide table concatenated onto itself level by level: the deepest
   subplan alone nearly fills the memo's byte bound, so one run
   overflows it and the store starts over mid-plan. Results stay those
   of the interpreter, and the store never holds more than its bound. *)
let test_subplan_memo_overflow () =
  Fun.protect ~finally:Executor.Cache.clear @@ fun () ->
  let arity = 100 and n = 5000 in
  let wide =
    let cols = List.init arity (fun i -> Schema.column (Printf.sprintf "c%d" i) Datatype.TInt) in
    Catalog.of_tables
      [ Table.create (Schema.make "w" cols)
          (Array.init n (fun i -> Array.init arity (fun j -> Value.Int (i + j)))) ]
  in
  let scan = P.TableScan { table = "w"; alias = "w" } in
  let levels = (Executor.Cache.max_bytes / (n * arity * 8)) - 1 in
  let rec concat k = if k = 0 then scan else P.Concat (concat (k - 1), scan) in
  let deep = concat levels in
  let plans =
    [ P.LimitOp { count = 3; child = deep };
      P.LimitOp { count = 7; child = P.Concat (deep, scan) } ]
  in
  let resets =
    counted "executor.subplan_memo.resets" (fun () ->
        List.iter
          (fun p ->
            let got = Result.get_ok (Executor.Cache.run wide p) in
            check bool_t "interpreter's rows" true
              (RS.equal_bag got (Result.get_ok (Executor.Exec.run_interpreted wide p)));
            check bool_t "within the bound" true
              (Obs.Metrics.gauge_value (Obs.Metrics.gauge "executor.subplan_memo.bytes")
              <= float_of_int Executor.Cache.max_bytes))
          plans)
  in
  check bool_t "the bound reset the store" true (resets > 0)

(* Stored rows are shared with every consumer: no operator may mutate a
   row array it is handed (a sort copies it, [Resultset.normalized]
   sorts a copy). A recording memo serves each subplan's rows and keeps
   a copy; after the plans ran and their results were normalized, every
   served array still holds the same rows with the same cells. *)
let test_memo_rows_immutable () =
  let served = ref [] in
  let store = P.Tbl.create 16 in
  let memo p run =
    match P.Tbl.find_opt store p with
    | Some rows -> rows
    | None ->
      let rows = run () in
      P.Tbl.add store p rows;
      served := (rows, Array.map Array.copy rows) :: !served;
      rows
  in
  let shared = hj L.FullOuter in
  let sort dir child = P.SortOp { keys = [ (lk, dir) ]; child } in
  let plans =
    [ P.Concat
        ( sort L.Desc (P.HashDistinct (P.FilterOp { pred = S.true_; child = shared })),
          P.Concat (P.LimitOp { count = 2; child = shared }, sort L.Asc shared) );
      P.HashAggregate { keys = []; aggs = [ (Ident.make "a" "n", A.CountStar) ]; child = shared };
      P.NestedLoopsJoin
        { kind = L.Semi; pred = join_pred; left = sort L.Desc scan_l; right = scan_r };
      P.HashUnion (sort L.Desc shared, shared) ]
  in
  List.iter
    (fun p -> ignore (RS.normalized (Result.get_ok (Executor.Exec.run ~memo cat p))))
    plans;
  check bool_t "subplans were served" true (List.length !served >= 4);
  List.iter
    (fun (rows, copy) ->
      check bool_t "served rows unchanged" true
        (Array.length rows = Array.length copy
        && Array.for_all2 (fun r c -> RS.compare_rows r c = 0) rows copy))
    !served

let suite =
  [ ( "executor.joins",
      [ Alcotest.test_case "nested loops kinds" `Quick test_nlj_kinds;
        Alcotest.test_case "hash join kinds" `Quick test_hash_kinds;
        Alcotest.test_case "hash = nested loops" `Quick test_hash_equals_nlj;
        Alcotest.test_case "merge join" `Quick test_merge_join;
        Alcotest.test_case "cross join" `Quick test_cross_join;
        Alcotest.test_case "outer padding" `Quick test_outer_join_padding;
        Alcotest.test_case "residual predicate" `Quick test_residual ] );
    ( "executor.scalar",
      [ Alcotest.test_case "three-valued filters" `Quick test_filter_3vl;
        Alcotest.test_case "compute scalar" `Quick test_compute ] );
    ( "executor.aggregate",
      [ Alcotest.test_case "aggregate functions" `Quick test_aggregates;
        Alcotest.test_case "group by keys" `Quick test_group_by_keys;
        Alcotest.test_case "global aggregate over empty" `Quick test_global_agg_on_empty;
        Alcotest.test_case "stream = hash" `Quick test_stream_equals_hash_agg ] );
    ( "executor.misc",
      [ Alcotest.test_case "sort and limit" `Quick test_sort_and_limit;
        Alcotest.test_case "set operations" `Quick test_set_operations;
        Alcotest.test_case "errors" `Quick test_exec_errors;
        Alcotest.test_case "result comparison" `Quick test_resultset_diff ] );
    ( "executor.compile",
      [ Alcotest.test_case "compiled = interpreted" `Quick
          test_compiled_equals_interpreted;
        Alcotest.test_case "unknown column at compile time" `Quick
          test_compile_time_unknown_column;
        Alcotest.test_case "plan fingerprint" `Quick test_fingerprint;
        Alcotest.test_case "result cache" `Quick test_result_cache;
        Alcotest.test_case "result cache disk tier" `Quick
          test_result_cache_disk;
        Alcotest.test_case "subplan memo lifetime" `Quick
          test_subplan_memo_lifetime;
        Alcotest.test_case "subplan memo byte bound" `Quick
          test_subplan_memo_overflow;
        Alcotest.test_case "served rows are never mutated" `Quick
          test_memo_rows_immutable ] );
    ( "executor.batch",
      [ Alcotest.test_case "ordered agreement" `Quick
          test_batch_rows_identical;
        Alcotest.test_case "empty input" `Quick test_batch_empty_input;
        Alcotest.test_case "error agreement" `Quick
          test_batch_error_agreement;
        Alcotest.test_case "join residual parity" `Quick
          test_residual_parity ] ) ]
