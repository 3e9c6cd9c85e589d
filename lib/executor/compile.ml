open Storage
module S = Relalg.Scalar
module Ident = Relalg.Ident

exception Compile_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

(* Same error text as [Eval], so the two paths are indistinguishable to
   callers on row-time type errors. *)
let of_bool3 = function None -> Value.Null | Some b -> Value.Bool b
let bad_bool v = invalid_arg ("Eval: expected boolean, got " ^ Value.to_sql v)

let as_bool3 = function
  | (Value.Bool _ | Value.Null) as v -> v
  | v -> bad_bool v

let column_index (cols : Ident.t array) id =
  let n = Array.length cols in
  let rec go i =
    if i = n then fail "unknown column %s" (Ident.to_sql id)
    else if Ident.equal cols.(i) id then i
    else go (i + 1)
  in
  go 0

let key_indices cols keys = Array.of_list (List.map (column_index cols) keys)

(* Column references become array offsets and every operator/connective
   is dispatched here, once — the returned closure does no hashtable
   lookups and no AST matching per row. *)
let rec scalar (cols : Ident.t array) (e : S.t) : Value.t array -> Value.t =
  match e with
  | S.Const v -> fun _ -> v
  | S.Col id ->
    let i = column_index cols id in
    fun row -> row.(i)
  | S.Neg a ->
    let fa = scalar cols a in
    fun row -> Value.neg (fa row)
  | S.Arith (op, a, b) ->
    let fa = scalar cols a and fb = scalar cols b in
    let f =
      match op with
      | S.Add -> Value.add
      | S.Sub -> Value.sub
      | S.Mul -> Value.mul
      | S.Div -> Value.div
    in
    fun row -> f (fa row) (fb row)
  | S.Cmp (op, a, b) ->
    (* Operands bound left-to-right, exactly as [Eval.scalar] does — the
       two paths must surface the same error when both operands fail. *)
    let fa = scalar cols a and fb = scalar cols b in
    let cmp =
      match op with
      | S.Eq -> Value.eq_sql
      | S.Ne -> fun va vb -> Option.map not (Value.eq_sql va vb)
      | S.Lt -> Value.lt_sql
      | S.Le -> Value.le_sql
      | S.Gt -> fun va vb -> Value.lt_sql vb va
      | S.Ge -> fun va vb -> Value.le_sql vb va
    in
    fun row ->
      let va = fa row in
      let vb = fb row in
      of_bool3 (cmp va vb)
  | S.And (a, b) -> (
    (* Kleene logic: false dominates NULL. *)
    let fa = scalar cols a and fb = scalar cols b in
    fun row ->
      match fa row with
      | Value.Bool false -> Value.Bool false
      | Value.Bool true -> as_bool3 (fb row)
      | Value.Null -> (
        match fb row with
        | Value.Bool false -> Value.Bool false
        | Value.Bool true | Value.Null -> Value.Null
        | v -> bad_bool v)
      | v -> bad_bool v)
  | S.Or (a, b) -> (
    let fa = scalar cols a and fb = scalar cols b in
    fun row ->
      match fa row with
      | Value.Bool true -> Value.Bool true
      | Value.Bool false -> as_bool3 (fb row)
      | Value.Null -> (
        match fb row with
        | Value.Bool true -> Value.Bool true
        | Value.Bool false | Value.Null -> Value.Null
        | v -> bad_bool v)
      | v -> bad_bool v)
  | S.Not a -> (
    let fa = scalar cols a in
    fun row ->
      match fa row with
      | Value.Bool b -> Value.Bool (not b)
      | Value.Null -> Value.Null
      | v -> bad_bool v)
  | S.IsNull a ->
    let fa = scalar cols a in
    fun row -> Value.Bool (Value.is_null (fa row))
  | S.IsNotNull a ->
    let fa = scalar cols a in
    fun row -> Value.Bool (not (Value.is_null (fa row)))

let pred cols p =
  let f = scalar cols p in
  fun row ->
    match f row with
    | Value.Bool true -> true
    | Value.Bool false | Value.Null -> false
    | v -> bad_bool v
