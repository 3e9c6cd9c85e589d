open Storage
module P = Optimizer.Physical
module S = Relalg.Scalar
module A = Relalg.Aggregate
module L = Relalg.Logical
module Ident = Relalg.Ident

(* Columnar batch execution. Scalars are compiled once into *kernels*
   that evaluate a whole batch of rows at a time: every expression node
   produces a [Value.t array] column, so per-row cost is a tight loop
   body instead of a closure call per AST node. Each operator evaluates
   its expressions as one batch over its whole input (a nested-loops
   join, one batch per left row). Observable behaviour — values,
   three-valued logic, *and the exact error raised* — must match the
   interpreter's [Eval]; the QCheck differential properties hold the two
   to that.

   Error discipline. Row-at-a-time evaluation aborts a row at its first
   failing expression node and aborts the operator at its first failing
   row. Kernels reproduce that with a per-row [exn option] slot shared
   across the expressions of one operator: a kernel records an error
   only into an empty slot (first expression wins per row), [And]/[Or]
   evaluate their right side only over the selection where the left side
   didn't short-circuit (a row short-circuited to FALSE/TRUE must not
   observe errors from the unreached side), and when an operator
   materializes its batch the error of the *lowest* erroring row index
   is raised — exactly the row a sequential scan would have died on. *)

(* ------------------------------------------------------------------ *)
(* Row layouts                                                         *)
(* ------------------------------------------------------------------ *)

exception Compile_error of string

(* Column references become array offsets when the plan is compiled, so
   an unknown column is reported before a single row is produced. *)
let column_index (cols : Ident.t array) id =
  let n = Array.length cols in
  let rec go i =
    if i = n then raise (Compile_error ("unknown column " ^ Ident.to_sql id))
    else if Ident.equal cols.(i) id then i
    else go (i + 1)
  in
  go 0

let key_indices cols keys = Array.of_list (List.map (column_index cols) keys)

(* ------------------------------------------------------------------ *)
(* Batch context                                                       *)
(* ------------------------------------------------------------------ *)

type ctx = {
  rows : Value.t array array;
  n : int;
  (* Allocated on the first error — the overwhelmingly common clean
     batch never pays for the slots. *)
  mutable err : exn option array;
  mutable has_err : bool;
  (* Per-batch unboxed-column cache: [Some] once a column proved
     all-float (no NULL, no NaN) over the whole batch, [None] once it
     proved otherwise. Kernels sharing a column (several arithmetic
     trees over the same price column, say) pay the unboxing scan once
     per batch instead of once per kernel. *)
  mutable ucache : (int * float array option) list;
  (* Per-batch common-subexpression store for the unboxed path:
     full-selection, division-free float subtrees evaluate once per
     batch no matter how many kernels (or how many occurrences inside
     one tree) mention them. Keyed structurally — column indices are
     operator-relative, and both the cache and the kernels live per
     operator, so equal keys mean equal values. *)
  mutable fmemo : (fexpr * float array) list;
}

and fexpr =
  | FConst of float
  | FCol of int
  | FNeg of fexpr
  | FOp of S.arith_op * fexpr * fexpr

let make_ctx rows =
  let n = Array.length rows in
  { rows; n; err = [||]; has_err = false; ucache = []; fmemo = [] }

let ok ctx i =
  (not ctx.has_err) || (match ctx.err.(i) with None -> true | Some _ -> false)

let set_err ctx i e =
  if not ctx.has_err then begin
    ctx.err <- Array.make ctx.n None;
    ctx.err.(i) <- Some e;
    ctx.has_err <- true
  end
  else match ctx.err.(i) with Some _ -> () | None -> ctx.err.(i) <- Some e

(* Raise the first (lowest-row) recorded error, if any. *)
let check ctx =
  if ctx.has_err then
    for i = 0 to ctx.n - 1 do
      match ctx.err.(i) with Some e -> raise e | None -> ()
    done

let full_sel n = Array.init n (fun i -> i)

(* Pre-sized immediate-int vector for selection building. Capacity is an
   upper bound the caller knows (the selection being partitioned), so
   pushes skip both the growth check and — ints being immediate — the
   [caml_modify] write barrier a generic ['a] vector pays. *)
module Ivec = struct
  type t = { a : int array; mutable len : int }

  let create cap = { a = Array.make (max cap 1) 0; len = 0 }

  let push v i =
    Array.unsafe_set v.a v.len i;
    v.len <- v.len + 1

  let to_array v =
    if v.len = Array.length v.a then v.a else Array.sub v.a 0 v.len
end

(* A kernel fills its output column at the selected row indices; rows
   outside the selection (or already carrying an error) hold garbage the
   caller never reads. *)
type kernel = ctx -> int array -> Value.t array

let bad_bool_exn v =
  Invalid_argument ("Eval: expected boolean, got " ^ Value.to_sql v)

(* ------------------------------------------------------------------ *)
(* Unboxed float path                                                  *)
(* ------------------------------------------------------------------ *)

(* A maximal Arith/Neg/Const/Col subtree whose constants are floats can
   evaluate entirely over unboxed [float array]s when — at runtime —
   every referenced column holds only floats in the current batch:
   Float⊙Float semantics never raises, never produces an Int, and
   division by zero (the only NULL source left) is recorded in one mask,
   so the loops are observationally identical to node-wise generic
   evaluation. A NULL, a NaN or any other value in a referenced column
   sends the whole batch to the generic kernels, as does a NULL
   literal. *)

let rec float_plan cols (e : S.t) : fexpr option =
  match e with
  | S.Const (Value.Float f) when not (Float.is_nan f) -> Some (FConst f)
  | S.Col id -> Some (FCol (column_index cols id))
  | S.Neg a -> Option.map (fun fa -> FNeg fa) (float_plan cols a)
  | S.Arith (op, a, b) -> (
    match (float_plan cols a, float_plan cols b) with
    | Some fa, Some fb -> Some (FOp (op, fa, fb))
    | _ -> None)
  | _ -> None

let rec fexpr_cols acc = function
  | FConst _ -> acc
  | FCol c -> if List.mem c acc then acc else c :: acc
  | FNeg a -> fexpr_cols acc a
  | FOp (_, a, b) -> fexpr_cols (fexpr_cols acc a) b

(* Unbox the columns an expression references over the *whole batch*
   (so each buffer serves any selection and is cacheable per ctx), in
   one pass over the rows — each row object is loaded once however many
   columns the expression references. Already-cached columns are
   skipped; [None] unless every referenced column is all-float. *)
let unbox_cols ctx cols_idx =
  (match
     List.filter (fun c -> not (List.mem_assoc c ctx.ucache)) cols_idx
   with
  | [] -> ()
  | missing ->
    let cs = Array.of_list missing in
    let m = Array.length cs in
    let bufs = Array.init m (fun _ -> Array.make ctx.n 0.0) in
    let okay = Array.make m true in
    for r = 0 to ctx.n - 1 do
      let row = Array.unsafe_get ctx.rows r in
      for j = 0 to m - 1 do
        if Array.unsafe_get okay j then
          match row.(Array.unsafe_get cs j) with
          | Value.Float x when not (Float.is_nan x) ->
            Array.unsafe_set (Array.unsafe_get bufs j) r x
          | _ -> okay.(j) <- false
      done
    done;
    Array.iteri
      (fun j c ->
        ctx.ucache <-
          (c, if okay.(j) then Some bufs.(j) else None) :: ctx.ucache)
      cs);
  let rec go acc = function
    | [] -> Some acc
    | c :: rest -> (
      match List.assoc c ctx.ucache with
      | Some buf -> go ((c, buf) :: acc) rest
      | None -> None)
  in
  go [] cols_idx

let rec has_fdiv = function
  | FConst _ | FCol _ -> false
  | FNeg a -> has_fdiv a
  | FOp (S.Div, _, _) -> true
  | FOp (_, a, b) -> has_fdiv a || has_fdiv b

(* One tight unboxed loop per node: no per-row closure calls, no boxed
   intermediates (float array reads and writes stay unboxed, which
   per-node closures could not — an [int -> float] closure boxes every
   return). Division by zero records into the shared [dmask]; a masked
   row's 0.0 placeholder may feed parent nodes, but the mask stays set,
   so the garbage is never materialized — NULL propagates to the root as
   it does through [Value.div]'s callers. *)
let rec feval ctx sel (env : (int * float array) list) (dmask : bool array)
    fe : float array =
  match fe with
  | FConst f -> Array.make ctx.n f
  | FCol c -> List.assoc c env
  | FNeg _ | FOp _ when has_fdiv fe -> feval_node ctx sel env dmask fe
  | FNeg _ | FOp _ -> (
    (* Common-subexpression elimination per batch: a full-selection,
       division-free subtree evaluates once and is shared — both across
       repeated occurrences inside one tree and across the kernels of
       one operator (they share the ctx). Division is excluded because
       its NULLs live in the caller's [dmask], not in the buffer. *)
    match List.assoc_opt fe ctx.fmemo with
    | Some buf -> buf (* full-sel buffers serve any narrower sel *)
    | None ->
      let buf = feval_node ctx sel env dmask fe in
      if Array.length sel = ctx.n then ctx.fmemo <- (fe, buf) :: ctx.fmemo;
      buf)

and feval_node ctx sel env dmask fe : float array =
  let buf = Array.make ctx.n 0.0 in
  let len = Array.length sel in
  (match fe with
  | FConst _ | FCol _ -> assert false (* handled by [feval] *)
  | FNeg a ->
    let va = feval ctx sel env dmask a in
    for k = 0 to len - 1 do
      let i = Array.unsafe_get sel k in
      Array.unsafe_set buf i (-.Array.unsafe_get va i)
    done
  | FOp (op, a, b) -> (
    let va = feval ctx sel env dmask a in
    let vb = feval ctx sel env dmask b in
    match op with
    | S.Add ->
      for k = 0 to len - 1 do
        let i = Array.unsafe_get sel k in
        Array.unsafe_set buf i (Array.unsafe_get va i +. Array.unsafe_get vb i)
      done
    | S.Sub ->
      for k = 0 to len - 1 do
        let i = Array.unsafe_get sel k in
        Array.unsafe_set buf i (Array.unsafe_get va i -. Array.unsafe_get vb i)
      done
    | S.Mul ->
      for k = 0 to len - 1 do
        let i = Array.unsafe_get sel k in
        Array.unsafe_set buf i (Array.unsafe_get va i *. Array.unsafe_get vb i)
      done
    | S.Div ->
      for k = 0 to len - 1 do
        let i = Array.unsafe_get sel k in
        let d = Array.unsafe_get vb i in
        if d = 0.0 then dmask.(i) <- true
        else Array.unsafe_set buf i (Array.unsafe_get va i /. d)
      done));
  buf

let vtrue = Value.Bool true
let vfalse = Value.Bool false
let vbool b = if b then vtrue else vfalse

(* SQL comparison on boxed values: [None] is NULL; may raise on
   incomparable types (recorded per row by the caller). *)
let cmp_fn : S.cmp_op -> Value.t -> Value.t -> bool option = function
  | S.Eq -> Value.eq_sql
  | S.Ne -> fun va vb -> Option.map not (Value.eq_sql va vb)
  | S.Lt -> Value.lt_sql
  | S.Le -> Value.le_sql
  | S.Gt -> fun va vb -> Value.lt_sql vb va
  | S.Ge -> fun va vb -> Value.le_sql vb va

(* ------------------------------------------------------------------ *)
(* Scalar kernels                                                      *)
(* ------------------------------------------------------------------ *)

(* The apply loops only need the per-row [ok] guard when some earlier
   kernel already recorded an error (its input slots hold garbage): if
   [has_err] is still false when the loop starts, every selected row's
   inputs are valid, and a row that errors *inside* the loop is visited
   exactly once — so the guard-free loop is safe. *)

let map1 (f : Value.t -> Value.t) (ka : kernel) : kernel =
 fun ctx sel ->
  let ca = ka ctx sel in
  let out = Array.make ctx.n Value.Null in
  let len = Array.length sel in
  if not ctx.has_err then
    for k = 0 to len - 1 do
      let i = Array.unsafe_get sel k in
      try Array.unsafe_set out i (f (Array.unsafe_get ca i))
      with e -> set_err ctx i e
    done
  else
    for k = 0 to len - 1 do
      let i = Array.unsafe_get sel k in
      if ok ctx i then
        try out.(i) <- f ca.(i) with e -> set_err ctx i e
    done;
  out

let map2_ord (rl : bool) (f : Value.t -> Value.t -> Value.t) (ka : kernel)
    (kb : kernel) : kernel =
 fun ctx sel ->
  (* Operand evaluation order decides which error wins a row when both
     sides fail, so it must copy the row path ([Eval.scalar]) node for
     node: [Cmp] binds its operands left to right, but [Arith] is a
     plain application [f (eval a) (eval b)] — and OCaml evaluates
     function arguments right to left. *)
  let ca, cb =
    if rl then
      let cb = kb ctx sel in
      (ka ctx sel, cb)
    else
      let ca = ka ctx sel in
      (ca, kb ctx sel)
  in
  let out = Array.make ctx.n Value.Null in
  let len = Array.length sel in
  if not ctx.has_err then
    for k = 0 to len - 1 do
      let i = Array.unsafe_get sel k in
      try Array.unsafe_set out i (f (Array.unsafe_get ca i) (Array.unsafe_get cb i))
      with e -> set_err ctx i e
    done
  else
    for k = 0 to len - 1 do
      let i = Array.unsafe_get sel k in
      if ok ctx i then
        try out.(i) <- f ca.(i) cb.(i) with e -> set_err ctx i e
    done;
  out

let map2 f ka kb = map2_ord false f ka kb
let map2_arith f ka kb = map2_ord true f ka kb

let rec scalar (cols : Ident.t array) (e : S.t) : kernel =
  match e with
  | S.Const v -> fun ctx _sel -> Array.make ctx.n v
  | S.Col id ->
    let c = column_index cols id in
    fun ctx sel ->
      let out = Array.make ctx.n Value.Null in
      let len = Array.length sel in
      for k = 0 to len - 1 do
        let i = Array.unsafe_get sel k in
        Array.unsafe_set out i (Array.unsafe_get ctx.rows i).(c)
      done;
      out
  | S.Neg _ | S.Arith (_, _, _) -> (
    match float_plan cols e with
    | Some fe -> fused_arith cols e fe
    | None -> generic_arith cols e)
  | S.Cmp (op, a, b) ->
    let cmp = cmp_fn op in
    map2
      (fun va vb -> match cmp va vb with None -> Value.Null | Some b -> vbool b)
      (scalar cols a) (scalar cols b)
  | S.And (a, b) ->
    (* The right side runs over a's TRUE ∪ NULL rows: FALSE rows are
       short-circuited, NULL rows still observe b's errors (the row path
       evaluates b to tell NULL from FALSE). *)
    let ka = scalar cols a and kb = scalar cols b in
    fun ctx sel ->
      let ca = ka ctx sel in
      let out = Array.make ctx.n Value.Null in
      let sub = Ivec.create (Array.length sel) in
      Array.iter
        (fun i ->
          if ok ctx i then
            match ca.(i) with
            | Value.Bool false -> out.(i) <- Value.Bool false
            | Value.Bool true | Value.Null -> Ivec.push sub i
            | v -> set_err ctx i (bad_bool_exn v))
        sel;
      let sub = Ivec.to_array sub in
      let cb = kb ctx sub in
      Array.iter
        (fun i ->
          if ok ctx i then
            match (ca.(i), cb.(i)) with
            | Value.Bool true, ((Value.Bool _ | Value.Null) as v) ->
              out.(i) <- v
            | Value.Null, Value.Bool false -> out.(i) <- Value.Bool false
            | Value.Null, (Value.Bool true | Value.Null) ->
              out.(i) <- Value.Null
            | _, v -> set_err ctx i (bad_bool_exn v))
        sub;
      out
  | S.Or (a, b) ->
    (* The right side runs over a's FALSE ∪ NULL rows. *)
    let ka = scalar cols a and kb = scalar cols b in
    fun ctx sel ->
      let ca = ka ctx sel in
      let out = Array.make ctx.n Value.Null in
      let sub = Ivec.create (Array.length sel) in
      Array.iter
        (fun i ->
          if ok ctx i then
            match ca.(i) with
            | Value.Bool true -> out.(i) <- Value.Bool true
            | Value.Bool false | Value.Null -> Ivec.push sub i
            | v -> set_err ctx i (bad_bool_exn v))
        sel;
      let sub = Ivec.to_array sub in
      let cb = kb ctx sub in
      Array.iter
        (fun i ->
          if ok ctx i then
            match (ca.(i), cb.(i)) with
            | Value.Bool false, ((Value.Bool _ | Value.Null) as v) ->
              out.(i) <- v
            | Value.Null, Value.Bool true -> out.(i) <- Value.Bool true
            | Value.Null, (Value.Bool false | Value.Null) ->
              out.(i) <- Value.Null
            | _, v -> set_err ctx i (bad_bool_exn v))
        sub;
      out
  | S.Not a ->
    map1
      (function
        | Value.Bool b -> Value.Bool (not b)
        | Value.Null -> Value.Null
        | v -> raise (bad_bool_exn v))
      (scalar cols a)
  | S.IsNull a ->
    map1 (fun v -> Value.Bool (Value.is_null v)) (scalar cols a)
  | S.IsNotNull a ->
    map1 (fun v -> Value.Bool (not (Value.is_null v))) (scalar cols a)

and generic_arith cols e : kernel =
  match e with
  | S.Neg a -> map1 Value.neg (scalar cols a)
  | S.Arith (op, a, b) ->
    let f =
      match op with
      | S.Add -> Value.add
      | S.Sub -> Value.sub
      | S.Mul -> Value.mul
      | S.Div -> Value.div
    in
    map2_arith f (scalar cols a) (scalar cols b)
  | _ -> assert false

(* The unboxed evaluation of a float subtree, or — when some referenced
   column is not all-float in this batch — its generic kernel. *)
and fused_arith cols e fe : kernel =
  let cols_idx = fexpr_cols [] fe in
  let generic = generic_arith cols e in
  fun ctx sel ->
    match unbox_cols ctx cols_idx with
    | None -> generic ctx sel
    | Some env ->
      let dmask = Array.make ctx.n false in
      let buf = feval ctx sel env dmask fe in
      let out = Array.make ctx.n Value.Null in
      for k = 0 to Array.length sel - 1 do
        let i = Array.unsafe_get sel k in
        if not (Array.unsafe_get dmask i) then
          Array.unsafe_set out i (Value.Float (Array.unsafe_get buf i))
      done;
      out

(* Evaluate a kernel over one whole batch and materialize: the column,
   or the lowest erroring row's error. *)
let eval_column (k : kernel) rows =
  let ctx = make_ctx rows in
  let col = k ctx (full_sel ctx.n) in
  check ctx;
  col

(* A predicate kernel over one batch: the ascending indices of its TRUE
   rows, or the lowest erroring row's error. A non-boolean predicate
   value is its row's error, as in [Eval.pred_true]; the [ok] guard
   matters — rows erred during evaluation hold garbage in the column. *)
let keep (k : kernel) rows =
  let ctx = make_ctx rows in
  let col = k ctx (full_sel ctx.n) in
  let kept = Ivec.create ctx.n in
  for i = 0 to ctx.n - 1 do
    if ok ctx i then
      match Array.unsafe_get col i with
      | Value.Bool true -> Ivec.push kept i
      | Value.Bool false | Value.Null -> ()
      | v -> set_err ctx i (bad_bool_exn v)
  done;
  check ctx;
  Ivec.to_array kept

(* ------------------------------------------------------------------ *)
(* Plan compilation: one batch per operator                            *)
(* ------------------------------------------------------------------ *)

type t = { cols : Ident.t array; gen : unit -> Value.t array array }

let check_arity a b =
  if Array.length a.cols <> Array.length b.cols then
    raise
      (Compile_error
         (Printf.sprintf "set operation arity mismatch: %d vs %d"
            (Array.length a.cols) (Array.length b.cols)))

(* Projection: all expression columns share the error slots (per row,
   the leftmost failing expression wins — the row path evaluates
   expressions left-to-right within a row). *)
let compute (kernels : kernel array) rows =
  let ctx = make_ctx rows in
  let sel = full_sel ctx.n in
  let columns = Array.map (fun k -> k ctx sel) kernels in
  check ctx;
  let m = Array.length columns in
  let out = Array.make ctx.n [||] in
  for i = 0 to ctx.n - 1 do
    let r = Array.make m Value.Null in
    for j = 0 to m - 1 do
      Array.unsafe_set r j (Array.unsafe_get (Array.unsafe_get columns j) i)
    done;
    Array.unsafe_set out i r
  done;
  out

(* A join residual over the combined layout, as a filter of the key
   candidates; the identity when the residual is TRUE. *)
let residual_filter cols r =
  if S.equal r S.true_ then fun _ _ candidates -> candidates
  else Relops.filter_matches (keep (scalar cols r))

type memo = P.t -> (unit -> Value.t array array) -> Value.t array array

(* Every operator runs inside its own [exec.batch.<op>] span, so a
   profile attributes self time per operator kind. Below the root, a
   non-scan operator asks [memo] for its rows before running (a scan's
   rows are its table's own array). *)
let rec node ?memo ~root catalog (p : P.t) : t =
  let sub = node ?memo ~root:false catalog in
  let compiled =
    match p with
    | P.TableScan { table; alias } -> (
      match Catalog.find catalog table with
      | None ->
        raise (Compile_error (Printf.sprintf "unknown table %s" table))
      | Some tb ->
        let cols =
          Array.of_list
            (List.map
               (fun c -> Ident.make alias c.Schema.col_name)
               tb.schema.columns)
        in
        let rows = tb.rows in
        { cols; gen = (fun () -> rows) })
    | P.FilterOp { pred = pr; child } ->
      let c = sub child in
      let k = scalar c.cols pr in
      { cols = c.cols;
        gen =
          (fun () ->
            let rows = c.gen () in
            Array.map (fun i -> Array.unsafe_get rows i) (keep k rows)) }
    | P.ComputeScalar { cols; child } ->
      let c = sub child in
      let out_cols = Array.of_list (List.map fst cols) in
      let kernels =
        Array.of_list (List.map (fun (_, e) -> scalar c.cols e) cols)
      in
      { cols = out_cols; gen = (fun () -> compute kernels (c.gen ())) }
    | P.NestedLoopsJoin { kind; pred = pr; left; right } ->
      let l = sub left and r = sub right in
      let k = scalar (Array.append l.cols r.cols) pr in
      let la = Array.length l.cols and ra = Array.length r.cols in
      { cols = Relops.join_cols kind l.cols r.cols;
        gen =
          (fun () ->
            let larr = l.gen () and rarr = r.gen () in
            Relops.join_rows kind ~left_arity:la ~right_arity:ra larr rarr
              (Relops.nested_loops_matches (keep k) larr rarr)) }
    | P.HashJoin { kind; left_keys; right_keys; residual; left; right } ->
      let l = sub left and r = sub right in
      let lidx = key_indices l.cols left_keys in
      let ridx = key_indices r.cols right_keys in
      let res = residual_filter (Array.append l.cols r.cols) residual in
      let la = Array.length l.cols and ra = Array.length r.cols in
      { cols = Relops.join_cols kind l.cols r.cols;
        gen =
          (fun () ->
            let larr = l.gen () and rarr = r.gen () in
            Relops.join_rows kind ~left_arity:la ~right_arity:ra larr rarr
              (res larr rarr (Relops.hash_matches ~lidx ~ridx larr rarr))) }
    | P.MergeJoin { left_keys; right_keys; residual; left; right } ->
      let l = sub left and r = sub right in
      let lidx = key_indices l.cols left_keys in
      let ridx = key_indices r.cols right_keys in
      let res = residual_filter (Array.append l.cols r.cols) residual in
      let la = Array.length l.cols and ra = Array.length r.cols in
      { cols = Relops.join_cols L.Inner l.cols r.cols;
        gen =
          (fun () ->
            let larr = l.gen () and rarr = r.gen () in
            Relops.join_rows L.Inner ~left_arity:la ~right_arity:ra larr rarr
              (res larr rarr (Relops.merge_matches ~lidx ~ridx larr rarr))) }
    | P.HashAggregate { keys; aggs; child } ->
      node_agg (sub child) keys aggs Relops.hash_groups
    | P.StreamAggregate { keys; aggs; child } ->
      node_agg (sub child) keys aggs Relops.stream_groups
    | P.SortOp { keys; child } ->
      let c = sub child in
      let kidx = key_indices c.cols (List.map fst keys) in
      let dirs = Array.of_list (List.map snd keys) in
      let cmp = Relops.sort_compare kidx dirs in
      { cols = c.cols;
        gen =
          (fun () ->
            let rows = Array.copy (c.gen ()) in
            Array.stable_sort cmp rows;
            rows) }
    | P.Concat (a, b) ->
      let ca = sub a and cb = sub b in
      check_arity ca cb;
      { cols = ca.cols; gen = (fun () -> Array.append (ca.gen ()) (cb.gen ())) }
    | P.HashUnion (a, b) ->
      let ca = sub a and cb = sub b in
      check_arity ca cb;
      { cols = ca.cols;
        gen =
          (fun () ->
            Relops.distinct_rows (Array.append (ca.gen ()) (cb.gen ()))) }
    | P.HashIntersect (a, b) ->
      let ca = sub a and cb = sub b in
      check_arity ca cb;
      { cols = ca.cols;
        gen =
          (fun () ->
            let in_b = Relops.row_set (cb.gen ()) in
            Relops.distinct_rows
              (Relops.filter_rows (Relops.RowTbl.mem in_b) (ca.gen ()))) }
    | P.HashExcept (a, b) ->
      let ca = sub a and cb = sub b in
      check_arity ca cb;
      { cols = ca.cols;
        gen =
          (fun () ->
            let in_b = Relops.row_set (cb.gen ()) in
            Relops.distinct_rows
              (Relops.filter_rows
                 (fun r -> not (Relops.RowTbl.mem in_b r))
                 (ca.gen ()))) }
    | P.HashDistinct child ->
      let c = sub child in
      { cols = c.cols; gen = (fun () -> Relops.distinct_rows (c.gen ())) }
    | P.LimitOp { count; child } ->
      let c = sub child in
      { cols = c.cols; gen = (fun () -> Relops.take_rows count (c.gen ())) }
  in
  let rows_c = Obs.Metrics.counter ~label:(P.op_name p) "exec.rows" in
  let ops_c = Obs.Metrics.counter ~label:(P.op_name p) "exec.operators" in
  let span = "exec.batch." ^ P.op_name p in
  let run () =
    Obs.Trace.with_span span @@ fun () ->
    let rows = compiled.gen () in
    if Obs.Metrics.enabled () then begin
      Obs.Metrics.add rows_c (Array.length rows);
      Obs.Metrics.incr ops_c
    end;
    rows
  in
  match (memo, p) with
  | None, _ | _, P.TableScan _ -> { compiled with gen = run }
  | Some _, _ when root -> { compiled with gen = run }
  | Some m, _ -> { compiled with gen = (fun () -> m p run) }

(* Aggregation: each aggregate argument compiles to one kernel, and
   every group's members are one batch ([Relops.make_agg] folds the
   column). *)
and node_agg c keys aggs group =
  let kidx = key_indices c.cols keys in
  let column e = eval_column (scalar c.cols e) in
  let agg_fns =
    Array.of_list (List.map (fun (_, a) -> Relops.make_agg column a) aggs)
  in
  let out_cols = Array.of_list (keys @ List.map fst aggs) in
  { cols = out_cols;
    gen =
      (fun () ->
        let rows = c.gen () in
        let groups =
          (* With no keys, exactly one (possibly empty-input) global
             group exists. *)
          if keys = [] then [| ([||], rows) |] else group kidx rows
        in
        Relops.grouped_rows agg_fns groups) }

let plan ?memo catalog p = node ?memo ~root:true catalog p
