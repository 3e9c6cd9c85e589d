(* Additional unit coverage: the SQL lexer, the cardinality estimator, and
   physical-plan utilities. *)
open Storage
module Lex = Relalg.Sql_lexer
module L = Relalg.Logical
module S = Relalg.Scalar
module Ident = Relalg.Ident

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ---------------- lexer ---------------- *)

let toks s = Result.get_ok (Lex.tokenize s)

let test_lexer_basic () =
  check int_t "select star" 4 (List.length (toks "SELECT * ,"));
  (match toks "a1_b2 <> 'x''y' 3.5 <= 42" with
  | [ Lex.IDENT "a1_b2"; Lex.NE; Lex.STRING "x'y"; Lex.FLOAT 3.5; Lex.LE;
      Lex.INT 42; Lex.EOF ] ->
    ()
  | other ->
    Alcotest.failf "unexpected tokens: %s"
      (String.concat " " (List.map Lex.token_to_string other)));
  check bool_t "keywords case-insensitive" true
    (toks "select" = [ Lex.KW "SELECT"; Lex.EOF ]);
  check bool_t "idents keep case" true
    (toks "Foo" = [ Lex.IDENT "Foo"; Lex.EOF ])

let test_lexer_numbers () =
  check bool_t "exponent float" true
    (match toks "1.5e3" with [ Lex.FLOAT f; Lex.EOF ] -> f = 1500.0 | _ -> false);
  check bool_t "int then dot-ident is not float" true
    (match toks "1 . x" with
    | [ Lex.INT 1; Lex.DOT; Lex.IDENT "x"; Lex.EOF ] -> true
    | _ -> false)

let test_lexer_errors () =
  check bool_t "unterminated string" true (Result.is_error (Lex.tokenize "'abc"));
  check bool_t "bad char" true (Result.is_error (Lex.tokenize "a ; b"))

(* ---------------- cardinality estimation ---------------- *)

let cat = Datagen.tpch ~scale:0.002 ()
let est () = Optimizer.Card.create cat
let nation = L.Get { table = "nation"; alias = "n" }
let orders = L.Get { table = "orders"; alias = "o" }
let n_key = Ident.make "n" "n_nationkey"
let o_ck = Ident.make "o" "o_custkey"

let test_card_base () =
  let e = est () in
  check bool_t "nation = 25" true (Optimizer.Card.rows e nation = 25.0);
  check bool_t "orders positive" true (Optimizer.Card.rows e orders > 0.0)

let test_card_filter_selectivity () =
  let e = est () in
  let eq_pred = S.eq (S.Col n_key) (S.int 3) in
  let filtered = L.Filter { pred = eq_pred; child = nation } in
  let r = Optimizer.Card.rows e filtered in
  (* 25 rows, 25 distinct keys: equality should estimate ~1 row. *)
  check bool_t "pk equality ~1" true (r >= 0.5 && r <= 2.0);
  let range = L.Filter { pred = S.Cmp (S.Lt, S.Col n_key, S.int 100); child = nation } in
  check bool_t "range below filter input" true
    (Optimizer.Card.rows e range <= 25.0)

let test_card_join_shapes () =
  let e = est () in
  let inner =
    L.Join
      { kind = L.Inner; pred = S.eq (S.Col n_key) (S.Col o_ck); left = nation;
        right = orders }
  in
  let cross = L.Join { kind = L.Cross; pred = S.true_; left = nation; right = orders } in
  let ri = Optimizer.Card.rows e inner and rc = Optimizer.Card.rows e cross in
  check bool_t "join below cross" true (ri < rc);
  let loj = L.Join { kind = L.LeftOuter; pred = S.eq (S.Col n_key) (S.Col o_ck); left = nation; right = orders } in
  check bool_t "loj at least left side" true (Optimizer.Card.rows e loj >= 25.0)

let test_card_agg_and_setops () =
  let e = est () in
  let global = L.GroupBy { keys = []; aggs = [ (Ident.make "g" "c", Relalg.Aggregate.CountStar) ]; child = orders } in
  check bool_t "global agg = 1" true (Optimizer.Card.rows e global = 1.0);
  let grouped = L.GroupBy { keys = [ o_ck ]; aggs = []; child = orders } in
  check bool_t "groups below input" true
    (Optimizer.Card.rows e grouped <= Optimizer.Card.rows e orders);
  let ua = L.UnionAll (nation, L.Get { table = "nation"; alias = "m" }) in
  check bool_t "union all adds" true (Optimizer.Card.rows e ua = 50.0);
  let lim = L.Limit { count = 3; child = orders } in
  check bool_t "limit caps" true (Optimizer.Card.rows e lim = 3.0)

let test_selectivity_bounds () =
  let e = est () in
  let preds =
    [ S.true_; S.Const (Value.Bool false); S.IsNull (S.Col n_key);
      S.Not (S.eq (S.Col n_key) (S.int 1));
      S.Or (S.eq (S.Col n_key) (S.int 1), S.eq (S.Col n_key) (S.int 2)) ]
  in
  List.iter
    (fun p ->
      let s = Optimizer.Card.selectivity e [ nation ] p in
      check bool_t ("bounded: " ^ S.to_sql p) true (s >= 1e-4 && s <= 1.0))
    preds

(* ---------------- physical utilities ---------------- *)

let test_physical_utils () =
  let open Optimizer.Physical in
  let scan = TableScan { table = "nation"; alias = "n" } in
  let plan =
    FilterOp { pred = S.true_; child = SortOp { keys = [ (n_key, L.Asc) ]; child = scan } }
  in
  check int_t "size" 3 (size plan);
  check int_t "children" 1 (List.length (children plan));
  check bool_t "op names" true
    (op_name plan = "Filter" && op_name scan = "TableScan");
  let loj =
    HashJoin
      { kind = L.LeftOuter; left_keys = []; right_keys = []; residual = S.true_;
        left = scan; right = scan }
  in
  check bool_t "metric label drops the join kind, printed plan keeps it" true
    (op_name loj = "HashJoin"
    && String.starts_with ~prefix:"HashLeftOuterJoin" (to_string loj));
  let s = to_string plan in
  check bool_t "pp mentions sort" true
    (let rec find i =
       i + 4 <= String.length s && (String.sub s i 4 = "Sort" || find (i + 1))
     in
     find 0)

let suite =
  [ ( "relalg.lexer",
      [ Alcotest.test_case "basic tokens" `Quick test_lexer_basic;
        Alcotest.test_case "numbers" `Quick test_lexer_numbers;
        Alcotest.test_case "errors" `Quick test_lexer_errors ] );
    ( "optimizer.card",
      [ Alcotest.test_case "base tables" `Quick test_card_base;
        Alcotest.test_case "filter selectivity" `Quick test_card_filter_selectivity;
        Alcotest.test_case "join shapes" `Quick test_card_join_shapes;
        Alcotest.test_case "aggregates and set ops" `Quick test_card_agg_and_setops;
        Alcotest.test_case "selectivity bounds" `Quick test_selectivity_bounds ] );
    ( "optimizer.physical",
      [ Alcotest.test_case "utilities" `Quick test_physical_utils ] ) ]
