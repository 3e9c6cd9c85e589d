open Storage
module L = Relalg.Logical
module A = Relalg.Aggregate

exception Exec_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

module RowTbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal a b = Resultset.compare_rows a b = 0
  let hash row = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 row
end)

(* Growable vector — the executor's output-row accumulator. *)
module Vec = struct
  type 'a t = { mutable arr : 'a array; mutable len : int }

  let create () = { arr = [||]; len = 0 }

  let push t x =
    if t.len = Array.length t.arr then begin
      let arr = Array.make (max 8 (2 * t.len)) x in
      Array.blit t.arr 0 arr 0 t.len;
      t.arr <- arr
    end;
    t.arr.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.arr 0 t.len
end

let nulls n = Array.make n Value.Null
let key_has_null key = Array.exists Value.is_null key
let extract_key idx row = Array.map (fun i -> row.(i)) idx

let filter_rows p rows =
  let out = Vec.create () in
  Array.iter (fun row -> if p row then Vec.push out row) rows;
  Vec.to_array out

let take_rows n rows = Array.sub rows 0 (min n (Array.length rows))

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

(* Fold [f] over a column's non-NULL values, seeded with the first one;
   NULL when there is none. *)
let fold_non_null f col =
  let acc = ref Value.Null and seen = ref false in
  Array.iter
    (fun v ->
      if not (Value.is_null v) then
        if !seen then acc := f !acc v
        else begin
          acc := v;
          seen := true
        end)
    col;
  !acc

(* SUM over one materialized column. Unboxed fast paths for mono-typed
   float and int columns bail to the generic fold on the first value that
   breaks the assumption; they perform the same operations in the same
   order as the generic fold, so results are bit-identical. *)
let fold_sum col =
  let n = Array.length col in
  let rec fsum i acc seen =
    if i = n then if seen then Some (Value.Float acc) else Some Value.Null
    else
      match col.(i) with
      | Value.Null -> fsum (i + 1) acc seen
      | Value.Float x -> fsum (i + 1) (if seen then acc +. x else x) true
      | _ -> None
  in
  let rec isum i acc seen =
    if i = n then if seen then Some (Value.Int acc) else Some Value.Null
    else
      match col.(i) with
      | Value.Null -> isum (i + 1) acc seen
      | Value.Int x -> isum (i + 1) (acc + x) true
      | _ -> None
  in
  (* Dispatch on the first non-null value's type. *)
  let rec first i =
    if i = n then Some Value.Null
    else
      match col.(i) with
      | Value.Null -> first (i + 1)
      | Value.Float _ -> fsum i 0.0 false
      | Value.Int _ -> isum i 0 false
      | _ -> None
  in
  match first 0 with Some v -> v | None -> fold_non_null Value.add col

(* [make_agg column agg] resolves the aggregate's argument to a column
   evaluator once and returns the per-group evaluator: the group's
   argument column is materialized (raising what the evaluator raises),
   then folded. NULL inputs are skipped by every aggregate except
   COUNT( * ). *)
let make_agg (column : Relalg.Scalar.t -> Value.t array array -> Value.t array)
    (agg : A.t) : Value.t array array -> Value.t =
  match agg with
  | A.CountStar -> fun rows -> Value.Int (Array.length rows)
  | A.Count e ->
    let f = column e in
    fun rows ->
      let c = ref 0 in
      Array.iter (fun v -> if not (Value.is_null v) then incr c) (f rows);
      Value.Int !c
  | A.Sum e ->
    let f = column e in
    fun rows -> fold_sum (f rows)
  | A.Min e ->
    let f = column e in
    fun rows ->
      fold_non_null
        (fun a v -> if Value.compare_total v a < 0 then v else a)
        (f rows)
  | A.Max e ->
    let f = column e in
    fun rows ->
      fold_non_null
        (fun a v -> if Value.compare_total v a > 0 then v else a)
        (f rows)
  | A.Avg e ->
    let f = column e in
    fun rows ->
      let total = ref 0.0 and count = ref 0 in
      Array.iter
        (function
          | Value.Null -> ()
          | Value.Int x ->
            total := !total +. float_of_int x;
            incr count
          | Value.Float x ->
            total := !total +. x;
            incr count
          | _ -> fail "AVG over non-numeric value")
        (f rows);
      if !count = 0 then Value.Null
      else Value.Float (!total /. float_of_int !count)

(* Hash grouping in first-appearance order of the keys; members keep
   input order. This table and the ones below are sized from their
   input's length: grown from a small start, a table of n keys rehashes
   every key about log n times. *)
let hash_groups kidx (rows : Value.t array array) :
    (Value.t array * Value.t array array) array =
  let table : Value.t array Vec.t RowTbl.t = RowTbl.create (Array.length rows) in
  let order = Vec.create () in
  Array.iter
    (fun row ->
      let key = extract_key kidx row in
      match RowTbl.find_opt table key with
      | Some members -> Vec.push members row
      | None ->
        let members = Vec.create () in
        Vec.push members row;
        RowTbl.add table key members;
        Vec.push order key)
    rows;
  Array.map
    (fun key -> (key, Vec.to_array (RowTbl.find table key)))
    (Vec.to_array order)

(* Consecutive runs of equal keys (input sorted by keys). *)
let stream_groups kidx (rows : Value.t array array) :
    (Value.t array * Value.t array array) array =
  let groups = Vec.create () in
  let n = Array.length rows in
  let i = ref 0 in
  while !i < n do
    let key = extract_key kidx rows.(!i) in
    let j = ref (!i + 1) in
    while
      !j < n && Resultset.compare_rows (extract_key kidx rows.(!j)) key = 0
    do
      incr j
    done;
    Vec.push groups (key, Array.sub rows !i (!j - !i));
    i := !j
  done;
  Vec.to_array groups

(* One output row per group: keys then aggregate values. *)
let grouped_rows (agg_fns : (Value.t array array -> Value.t) array)
    (groups : (Value.t array * Value.t array array) array) =
  Array.map
    (fun (key, members) ->
      let nk = Array.length key and na = Array.length agg_fns in
      let out = Array.make (nk + na) Value.Null in
      Array.blit key 0 out 0 nk;
      for i = 0 to na - 1 do
        out.(nk + i) <- agg_fns.(i) members
      done;
      out)
    groups

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

let join_cols (kind : L.join_kind) left_cols right_cols =
  match kind with
  | L.Semi | L.AntiSemi -> left_cols
  | L.Inner | L.Cross | L.LeftOuter | L.RightOuter | L.FullOuter ->
    Array.append left_cols right_cols

(* Shared join finalization: [match_lists.(li)] holds the indices of right
   rows fully matching left row [li]. *)
let join_rows (kind : L.join_kind) ~left_arity ~right_arity
    (larr : Value.t array array) (rarr : Value.t array array)
    (match_lists : int list array) : Value.t array array =
  let right_matched = Array.make (Array.length rarr) false in
  let out = Vec.create () in
  let emit row = Vec.push out row in
  let combine li ri = Array.append larr.(li) rarr.(ri) in
  Array.iteri
    (fun li ms ->
      match kind with
      | L.Semi -> if ms <> [] then emit larr.(li)
      | L.AntiSemi -> if ms = [] then emit larr.(li)
      | L.Inner | L.Cross -> List.iter (fun ri -> emit (combine li ri)) ms
      | L.LeftOuter ->
        if ms = [] then emit (Array.append larr.(li) (nulls right_arity))
        else List.iter (fun ri -> emit (combine li ri)) ms
      | L.RightOuter ->
        List.iter
          (fun ri ->
            right_matched.(ri) <- true;
            emit (combine li ri))
          ms
      | L.FullOuter ->
        if ms = [] then emit (Array.append larr.(li) (nulls right_arity))
        else
          List.iter
            (fun ri ->
              right_matched.(ri) <- true;
              emit (combine li ri))
            ms)
    match_lists;
  (match kind with
  | L.RightOuter | L.FullOuter ->
    Array.iteri
      (fun ri matched ->
        if not matched then emit (Array.append (nulls left_arity) rarr.(ri)))
      right_matched
  | L.Semi | L.AntiSemi | L.Inner | L.Cross | L.LeftOuter -> ());
  Vec.to_array out

(* Ascending indices of the rows [p] accepts, tested in input order:
   the interpreter's [keep] for the match filters below. *)
let keep_where p rows =
  let out = Vec.create () in
  Array.iteri (fun i row -> if p row then Vec.push out i) rows;
  Vec.to_array out

(* One [keep] batch per left row: the row combined with every right
   row. *)
let nested_loops_matches keep (larr : Value.t array array)
    (rarr : Value.t array array) =
  Array.map
    (fun lrow ->
      Array.to_list (keep (Array.map (fun rrow -> Array.append lrow rrow) rarr)))
    larr

(* Residual filtering of candidate matches: every candidate pair of the
   operator, combined, in one [keep] batch — left rows in order, each
   row's candidates in right order, the order a per-pair loop tests
   them, so a [keep] that raises at its lowest erroring row raises the
   pair such a loop would have died on. *)
let filter_matches keep (larr : Value.t array array) (rarr : Value.t array array)
    (candidates : int list array) =
  let pairs = Vec.create () in
  Array.iteri
    (fun li ms -> List.iter (fun ri -> Vec.push pairs (li, ri)) ms)
    candidates;
  let pairs = Vec.to_array pairs in
  let kept =
    keep (Array.map (fun (li, ri) -> Array.append larr.(li) rarr.(ri)) pairs)
  in
  let out = Array.make (Array.length larr) [] in
  for k = Array.length kept - 1 downto 0 do
    let li, ri = pairs.(kept.(k)) in
    out.(li) <- ri :: out.(li)
  done;
  out

(* Equi-join by hashing the right side on its key columns. NULL keys
   never match (skipped on both sides); candidates come in right-input
   order. *)
let hash_matches ~lidx ~ridx (larr : Value.t array array)
    (rarr : Value.t array array) =
  let table : int list ref RowTbl.t = RowTbl.create (Array.length rarr) in
  Array.iteri
    (fun ri rrow ->
      let key = extract_key ridx rrow in
      if not (key_has_null key) then
        match RowTbl.find_opt table key with
        | Some cell -> cell := ri :: !cell
        | None -> RowTbl.add table key (ref [ ri ]))
    rarr;
  Array.map
    (fun lrow ->
      let key = extract_key lidx lrow in
      if key_has_null key then []
      else
        match RowTbl.find_opt table key with
        | None -> []
        | Some cell -> List.rev !cell)
    larr

(* Inner merge join over inputs already sorted on their keys. Rows with
   NULL keys sort first and can never match; they are skipped. *)
let merge_matches ~lidx ~ridx (larr : Value.t array array)
    (rarr : Value.t array array) =
  let nl = Array.length larr and nr = Array.length rarr in
  let match_lists = Array.make nl [] in
  let key_cmp = Resultset.compare_rows in
  let li = ref 0 and ri = ref 0 in
  while !li < nl && !ri < nr do
    let lkey = extract_key lidx larr.(!li) in
    let rkey = extract_key ridx rarr.(!ri) in
    if key_has_null lkey then incr li
    else if key_has_null rkey then incr ri
    else
      let c = key_cmp lkey rkey in
      if c < 0 then incr li
      else if c > 0 then incr ri
      else begin
        (* Collect the equal-key groups on both sides. *)
        let l_end = ref !li in
        while
          !l_end < nl && key_cmp (extract_key lidx larr.(!l_end)) lkey = 0
        do
          incr l_end
        done;
        let r_end = ref !ri in
        while
          !r_end < nr && key_cmp (extract_key ridx rarr.(!r_end)) rkey = 0
        do
          incr r_end
        done;
        let group = List.init (!r_end - !ri) (fun j -> !ri + j) in
        for i = !li to !l_end - 1 do
          match_lists.(i) <- group
        done;
        li := !l_end;
        ri := !r_end
      end
  done;
  match_lists

(* ------------------------------------------------------------------ *)
(* Distinct and set operations                                         *)
(* ------------------------------------------------------------------ *)

let distinct_rows rows =
  let seen = RowTbl.create (Array.length rows) in
  filter_rows
    (fun row ->
      if RowTbl.mem seen row then false
      else begin
        RowTbl.add seen row ();
        true
      end)
    rows

let row_set rows =
  let set = RowTbl.create (Array.length rows) in
  Array.iter (fun row -> RowTbl.replace set row ()) rows;
  set

(* ------------------------------------------------------------------ *)
(* Sorting                                                             *)
(* ------------------------------------------------------------------ *)

let sort_compare (kidx : int array) (dirs : L.sort_dir array) a b =
  let rec go i =
    if i = Array.length kidx then 0
    else
      let c = Value.compare_total a.(kidx.(i)) b.(kidx.(i)) in
      let c = match dirs.(i) with L.Asc -> c | L.Desc -> -c in
      if c <> 0 then c else go (i + 1)
  in
  go 0
