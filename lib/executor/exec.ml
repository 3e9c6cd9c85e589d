open Storage
module P = Optimizer.Physical
module L = Relalg.Logical
module Ident = Relalg.Ident
module RS = Resultset

let fail fmt = Relops.fail fmt

(* ------------------------------------------------------------------ *)
(* Reference interpreter                                               *)
(*                                                                     *)
(* Row-at-a-time: every column reference is a hashtable lookup and      *)
(* every expression an AST walk ([Eval.scalar]). Kept as the semantic   *)
(* oracle the batch path ([Batch]) is differentially tested against,    *)
(* and as the interpreter side of the [execute] bench.                  *)
(* ------------------------------------------------------------------ *)

let make_env (cols : Ident.t array) =
  let index : (Ident.t, int) Hashtbl.t = Hashtbl.create (Array.length cols) in
  Array.iteri (fun i c -> Hashtbl.replace index c i) cols;
  fun (row : Value.t array) (id : Ident.t) ->
    match Hashtbl.find_opt index id with
    | Some i -> row.(i)
    | None -> fail "unknown column %s" (Ident.to_sql id)

let key_indices (cols : Ident.t array) keys =
  let find k =
    let rec go i =
      if i = Array.length cols then fail "unknown key column %s" (Ident.to_sql k)
      else if Ident.equal cols.(i) k then i
      else go (i + 1)
    in
    go 0
  in
  Array.of_list (List.map find keys)

(* Aggregate arguments interpreted per row, per group: a group's column
   is [Array.map], so it raises at the first erroring member. *)
let interp_aggs cols aggs =
  let env = make_env cols in
  let column e rows = Array.map (fun row -> Eval.scalar (env row) e) rows in
  Array.of_list (List.map (fun (_, a) -> Relops.make_agg column a) aggs)

(* A predicate as a [keep] function over the combined layout, tested row
   by row in batch order. *)
let keep_env cols p =
  let env = make_env cols in
  Relops.keep_where (fun row -> Eval.pred_true (env row) p)

let residual_filter cols r larr rarr candidates =
  if Relalg.Scalar.equal r Relalg.Scalar.true_ then candidates
  else Relops.filter_matches (keep_env cols r) larr rarr candidates

let rec exec catalog (plan : P.t) : RS.t =
  let rs = exec_node catalog plan in
  (* Rows flowing out of every physical operator, by operator kind. *)
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.add
      (Obs.Metrics.counter ~label:(P.op_name plan) "exec.rows")
      (RS.row_count rs);
    Obs.Metrics.incr (Obs.Metrics.counter ~label:(P.op_name plan) "exec.operators")
  end;
  rs

and exec_join catalog kind left right matches =
  let l = exec catalog left and r = exec catalog right in
  let larr = RS.rows l and rarr = RS.rows r in
  RS.make
    (Relops.join_cols kind (RS.cols l) (RS.cols r))
    (Relops.join_rows kind
       ~left_arity:(Array.length (RS.cols l))
       ~right_arity:(Array.length (RS.cols r))
       larr rarr
       (matches l r larr rarr))

and exec_agg catalog keys aggs child group =
  let input = exec catalog child in
  let kidx = key_indices (RS.cols input) keys in
  let rows = RS.rows input in
  let groups =
    (* With no keys, exactly one (possibly empty-input) global group
       exists. *)
    if keys = [] then [| ([||], rows) |] else group kidx rows
  in
  RS.make
    (Array.of_list (keys @ List.map fst aggs))
    (Relops.grouped_rows (interp_aggs (RS.cols input) aggs) groups)

and exec_node catalog (plan : P.t) : RS.t =
  match plan with
  | P.TableScan { table; alias } -> (
    match Catalog.find catalog table with
    | None -> fail "unknown table %s" table
    | Some tb ->
      let cols =
        Array.of_list
          (List.map (fun c -> Ident.make alias c.Schema.col_name) tb.schema.columns)
      in
      RS.make cols tb.rows)
  | P.FilterOp { pred; child } ->
    let input = exec catalog child in
    let env = make_env (RS.cols input) in
    RS.make (RS.cols input)
      (Relops.filter_rows (fun row -> Eval.pred_true (env row) pred)
         (RS.rows input))
  | P.ComputeScalar { cols; child } ->
    let input = exec catalog child in
    let env = make_env (RS.cols input) in
    let out_cols = Array.of_list (List.map fst cols) in
    let rows =
      Array.map
        (fun row ->
          Array.of_list (List.map (fun (_, e) -> Eval.scalar (env row) e) cols))
        (RS.rows input)
    in
    RS.make out_cols rows
  | P.NestedLoopsJoin { kind; pred; left; right } ->
    exec_join catalog kind left right (fun l r larr rarr ->
        Relops.nested_loops_matches
          (keep_env (Array.append (RS.cols l) (RS.cols r)) pred)
          larr rarr)
  | P.HashJoin { kind; left_keys; right_keys; residual; left; right } ->
    exec_join catalog kind left right (fun l r larr rarr ->
        let lidx = key_indices (RS.cols l) left_keys in
        let ridx = key_indices (RS.cols r) right_keys in
        residual_filter (Array.append (RS.cols l) (RS.cols r)) residual larr
          rarr (Relops.hash_matches ~lidx ~ridx larr rarr))
  | P.MergeJoin { left_keys; right_keys; residual; left; right } ->
    exec_join catalog L.Inner left right (fun l r larr rarr ->
        let lidx = key_indices (RS.cols l) left_keys in
        let ridx = key_indices (RS.cols r) right_keys in
        residual_filter (Array.append (RS.cols l) (RS.cols r)) residual larr
          rarr (Relops.merge_matches ~lidx ~ridx larr rarr))
  | P.HashAggregate { keys; aggs; child } ->
    exec_agg catalog keys aggs child Relops.hash_groups
  | P.StreamAggregate { keys; aggs; child } ->
    exec_agg catalog keys aggs child Relops.stream_groups
  | P.SortOp { keys; child } ->
    let input = exec catalog child in
    let kidx = key_indices (RS.cols input) (List.map fst keys) in
    let dirs = Array.of_list (List.map snd keys) in
    let rows = Array.copy (RS.rows input) in
    Array.stable_sort (Relops.sort_compare kidx dirs) rows;
    RS.make (RS.cols input) rows
  | P.Concat (a, b) ->
    let ra = exec catalog a and rb = exec catalog b in
    check_arity ra rb;
    RS.make (RS.cols ra) (Array.append (RS.rows ra) (RS.rows rb))
  | P.HashUnion (a, b) ->
    let ra = exec catalog a and rb = exec catalog b in
    check_arity ra rb;
    RS.make (RS.cols ra)
      (Relops.distinct_rows (Array.append (RS.rows ra) (RS.rows rb)))
  | P.HashIntersect (a, b) ->
    let ra = exec catalog a and rb = exec catalog b in
    check_arity ra rb;
    let in_b = Relops.row_set (RS.rows rb) in
    RS.make (RS.cols ra)
      (Relops.distinct_rows
         (Relops.filter_rows (Relops.RowTbl.mem in_b) (RS.rows ra)))
  | P.HashExcept (a, b) ->
    let ra = exec catalog a and rb = exec catalog b in
    check_arity ra rb;
    let in_b = Relops.row_set (RS.rows rb) in
    RS.make (RS.cols ra)
      (Relops.distinct_rows
         (Relops.filter_rows
            (fun r -> not (Relops.RowTbl.mem in_b r))
            (RS.rows ra)))
  | P.HashDistinct child ->
    let input = exec catalog child in
    RS.make (RS.cols input) (Relops.distinct_rows (RS.rows input))
  | P.LimitOp { count; child } ->
    let input = exec catalog child in
    RS.make (RS.cols input) (Relops.take_rows count (RS.rows input))

and check_arity (a : RS.t) (b : RS.t) =
  if Array.length (RS.cols a) <> Array.length (RS.cols b) then
    fail "set operation arity mismatch: %d vs %d"
      (Array.length (RS.cols a))
      (Array.length (RS.cols b))

let run_interpreted catalog plan =
  Obs.Trace.with_span "exec.interpret" @@ fun () ->
  try Ok (exec catalog plan) with
  | Relops.Exec_error msg -> Error msg
  | Invalid_argument msg -> Error ("execution type error: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Batch execution                                                     *)
(* ------------------------------------------------------------------ *)

let compile_h = Obs.Metrics.histogram "executor.compile_ns"
let exec_h = Obs.Metrics.histogram "executor.exec_ns"
let rows_c = Obs.Metrics.counter "executor.rows"
let rps_g = Obs.Metrics.gauge "executor.rows_per_sec"

let materialize (b : Batch.t) = RS.make b.cols (b.gen ())

(* Columnar batch kernels ([Batch]), one batch per operator. *)
let run catalog plan =
  Obs.Trace.with_span "exec.batch" @@ fun () ->
  let compile () = Batch.plan catalog plan in
  try
    if Obs.Metrics.enabled () then begin
      let t0 = Obs.Clock.now_ns () in
      let compiled = compile () in
      let t1 = Obs.Clock.now_ns () in
      Obs.Metrics.observe compile_h (Obs.Clock.ns_between t0 t1);
      let rs = materialize compiled in
      let t2 = Obs.Clock.now_ns () in
      let dt = Obs.Clock.ns_between t1 t2 in
      Obs.Metrics.observe exec_h dt;
      Obs.Metrics.add rows_c (RS.row_count rs);
      if dt > 0.0 then
        Obs.Metrics.gauge_set rps_g (float_of_int (RS.row_count rs) *. 1e9 /. dt);
      Ok rs
    end
    else Ok (materialize (compile ()))
  with
  | Batch.Compile_error msg | Relops.Exec_error msg -> Error msg
  | Invalid_argument msg -> Error ("execution type error: " ^ msg)

let run_logical ?options catalog tree =
  match Optimizer.Engine.optimize ?options catalog tree with
  | Error e -> Error e
  | Ok r -> run catalog r.plan
