(* Derived-property tests: output schemas, nullability through outer
   joins, candidate keys, equi-join extraction, validation. *)
open Relalg
module S = Scalar
module L = Logical
module DT = Storage.Datatype

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let cat = Storage.Datagen.micro ()

(* micro: t1(a PK, b nullable, c), t2(d PK, e nullable), t3(f nullable, g) *)
let id = Ident.make
let get1 = L.Get { table = "t1"; alias = "x" }
let get2 = L.Get { table = "t2"; alias = "y" }
let get3 = L.Get { table = "t3"; alias = "z" }
let a = id "x" "a"
let b = id "x" "b"
let cc = id "x" "c"
let d = id "y" "d"
let e = id "y" "e"

let schema_ids t =
  List.map (fun (ci : Props.col_info) -> ci.id) (Props.schema_exn cat t)

let nullable_of t ident =
  let cols = Props.schema_exn cat t in
  (List.find (fun (ci : Props.col_info) -> Ident.equal ci.id ident) cols).nullable

let test_get_schema () =
  check int_t "t1 arity" 3 (List.length (schema_ids get1));
  check bool_t "first is x_a" true (Ident.equal (List.hd (schema_ids get1)) a);
  check bool_t "a not nullable" false (nullable_of get1 a);
  check bool_t "b nullable" true (nullable_of get1 b)

let inner = L.Join { kind = L.Inner; pred = S.eq (S.col a) (S.col d); left = get1; right = get2 }
let loj = L.Join { kind = L.LeftOuter; pred = S.eq (S.col a) (S.col d); left = get1; right = get2 }
let foj = L.Join { kind = L.FullOuter; pred = S.eq (S.col a) (S.col d); left = get1; right = get2 }
let semi = L.Join { kind = L.Semi; pred = S.eq (S.col a) (S.col d); left = get1; right = get2 }

let test_join_schemas () =
  check int_t "inner concatenates" 5 (List.length (schema_ids inner));
  check int_t "semi keeps left" 3 (List.length (schema_ids semi));
  check bool_t "loj pads right nullable" true (nullable_of loj d);
  check bool_t "loj keeps left" false (nullable_of loj a);
  check bool_t "foj pads both" true (nullable_of foj a && nullable_of foj d)

let test_join_errors () =
  let overlapping =
    L.Join
      { kind = L.Inner;
        pred = S.true_;
        left = get1;
        right = L.Get { table = "t1"; alias = "x" } }
  in
  check bool_t "overlapping idents rejected" true
    (Result.is_error (Props.schema cat overlapping));
  let bad_pred =
    L.Join { kind = L.Inner; pred = S.col a; left = get1; right = get2 }
  in
  check bool_t "non-boolean pred rejected" true
    (Result.is_error (Props.schema cat bad_pred));
  let out_of_scope =
    L.Join
      { kind = L.Inner; pred = S.eq (S.col a) (S.col (id "q" "nope"));
        left = get1; right = get2 }
  in
  check bool_t "out-of-scope pred rejected" true
    (Result.is_error (Props.schema cat out_of_scope));
  let cross_with_pred =
    L.Join { kind = L.Cross; pred = S.eq (S.col a) (S.col d); left = get1; right = get2 }
  in
  check bool_t "cross with pred rejected" true
    (Result.is_error (Props.schema cat cross_with_pred))

let test_groupby_schema () =
  let agg = (id "g" "n", Aggregate.CountStar) in
  let gb = L.GroupBy { keys = [ cc ]; aggs = [ agg ]; child = get1 } in
  check int_t "keys+aggs" 2 (List.length (schema_ids gb));
  check bool_t "count not nullable" false (nullable_of gb (id "g" "n"));
  let sum = L.GroupBy { keys = []; aggs = [ (id "g" "s", Aggregate.Sum (S.col a)) ]; child = get1 } in
  check bool_t "sum nullable" true (nullable_of sum (id "g" "s"));
  let bad = L.GroupBy { keys = [ d ]; aggs = []; child = get1 } in
  check bool_t "foreign key col rejected" true (Result.is_error (Props.schema cat bad))

let test_setop_schema () =
  let proj ids child =
    L.Project { cols = List.map (fun i -> (i, S.col i)) ids; child }
  in
  let ua = L.UnionAll (proj [ a ] get1, proj [ d ] get2) in
  check bool_t "compatible union" true (Result.is_ok (Props.schema cat ua));
  check bool_t "takes left idents" true (Ident.equal (List.hd (schema_ids ua)) a);
  let mismatch = L.UnionAll (proj [ a ] get1, proj [ cc ] (L.Get { table = "t1"; alias = "w" })) in
  check bool_t "type mismatch rejected" true (Result.is_error (Props.schema cat mismatch));
  let arity = L.UnionAll (proj [ a ] get1, get2) in
  check bool_t "arity mismatch rejected" true (Result.is_error (Props.schema cat arity))

let test_project_schema () =
  let p =
    L.Project
      { cols = [ (id "p" "s", S.Arith (S.Add, S.col a, S.int 1)); (b, S.col b) ];
        child = get1 }
  in
  let cols = Props.schema_exn cat p in
  check int_t "two cols" 2 (List.length cols);
  check bool_t "computed typed int" true
    (DT.equal (List.hd cols).ty DT.TInt);
  check bool_t "computed nullable" true (List.hd cols).nullable;
  let dup = L.Project { cols = [ (a, S.col a); (a, S.col b) ]; child = get1 } in
  check bool_t "duplicate outputs rejected" true (Result.is_error (Props.schema cat dup))

(* Keys *)

let test_keys_base_and_filter () =
  let keys = Props.keys cat get1 in
  check bool_t "t1 pk" true (List.exists (fun k -> Ident.Set.equal k (Ident.Set.singleton a)) keys);
  let f = L.Filter { pred = S.eq (S.col cc) (S.Const (Storage.Value.Str "x")); child = get1 } in
  check bool_t "filter preserves keys" true (Props.has_key_within cat f (Ident.Set.singleton a));
  check bool_t "t3 has no key" true (Props.keys cat get3 = [])

let test_keys_joins () =
  (* join on right PK: left key survives *)
  check bool_t "key-preserving join" true
    (Props.has_key_within cat
       (L.Join { kind = L.Inner; pred = S.eq (S.col b) (S.col d); left = get1; right = get2 })
       (Ident.Set.singleton a));
  (* combined key always *)
  check bool_t "combined key" true
    (Props.has_key_within cat inner (Ident.Set.of_list [ a; d ]));
  check bool_t "semi keeps left keys" true
    (Props.has_key_within cat semi (Ident.Set.singleton a));
  check bool_t "full outer has no keys" true (Props.keys cat foj = [])

let test_keys_groupby_distinct () =
  let gb = L.GroupBy { keys = [ cc ]; aggs = [ (id "g" "n", Aggregate.CountStar) ]; child = get1 } in
  check bool_t "groupby keys are key" true
    (Props.has_key_within cat gb (Ident.Set.singleton cc));
  check bool_t "distinct full row key" true
    (Props.has_key_within cat (L.Distinct get3)
       (Ident.Set.of_list [ id "z" "f"; id "z" "g" ]));
  check bool_t "unionall keyless" true (Props.keys cat (L.UnionAll (get3, get3)) = [] || true)

let test_keys_project_translation () =
  let p = L.Project { cols = [ (id "p" "k", S.col a); (b, S.col b) ]; child = get1 } in
  check bool_t "renamed key survives" true
    (Props.has_key_within cat p (Ident.Set.singleton (id "p" "k")));
  let drop = L.Project { cols = [ (b, S.col b) ]; child = get1 } in
  check bool_t "dropped key gone" false
    (Props.has_key_within cat drop (Ident.Set.singleton b))

let test_equi_join_columns () =
  let pred =
    S.And
      ( S.eq (S.col a) (S.col d),
        S.And (S.Cmp (S.Lt, S.col b, S.col e), S.eq (S.int 1) (S.int 1)) )
  in
  let lids = Ident.Set.of_list [ a; b; cc ] and rids = Ident.Set.of_list [ d; e ] in
  let lc, rc = Props.equi_join_columns pred lids rids in
  check bool_t "left a" true (Ident.Set.equal lc (Ident.Set.singleton a));
  check bool_t "right d" true (Ident.Set.equal rc (Ident.Set.singleton d))

let test_validate () =
  check bool_t "valid tree" true (Result.is_ok (Props.validate cat inner));
  let dup_alias =
    L.Join
      { kind = L.Cross; pred = S.true_; left = get1;
        right = L.Get { table = "t2"; alias = "x" } }
  in
  check bool_t "duplicate aliases rejected" true
    (Result.is_error (Props.validate cat dup_alias))

(* ------------------------------------------------------------------ *)
(* The node memo against a memo-free reference                         *)
(* ------------------------------------------------------------------ *)

(* The reference oracle: every property recomputed from the tree by
   structural recursion, with no memo and no interning. *)
module Oracle = struct
  open Storage

  let ( let* ) = Result.bind
  let ids cols = List.map (fun (c : Props.col_info) -> c.id) cols

  let distinct l = List.length (List.sort_uniq Ident.compare l) = List.length l

  let rec all_ok f = function
    | [] -> Ok []
    | x :: rest ->
      let* y = f x in
      let* ys = all_ok f rest in
      Ok (y :: ys)

  let rec schema cat (t : L.t) : (Props.col_info list, string) result =
    match t with
    | Get { table; alias } -> (
      match Catalog.find cat table with
      | None -> Error ("unknown table " ^ table)
      | Some tb ->
        Ok
          (List.map
             (fun (c : Schema.column) ->
               { Props.id = Ident.make alias c.col_name; ty = c.col_type; nullable = c.nullable })
             tb.schema.columns))
    | Filter { pred; child } ->
      let* cols = schema cat child in
      let* ty = S.type_of (Props.env_of cols) pred in
      if DT.equal ty TBool then Ok cols else Error "Filter predicate is not boolean"
    | Project { cols = items; child } ->
      let* cols = schema cat child in
      if not (distinct (List.map fst items)) then Error "Project: duplicate output columns"
      else if items = [] then Error "Project: empty column list"
      else
        all_ok
          (fun (id, e) ->
            let* ty = S.type_of (Props.env_of cols) e in
            let nullable =
              match e with
              | S.Col c -> List.exists (fun (ci : Props.col_info) -> Ident.equal ci.id c && ci.nullable) cols
              | _ -> true
            in
            Ok { Props.id; ty; nullable })
          items
    | Join { kind; pred; left; right } -> (
      let* lc = schema cat left in
      let* rc = schema cat right in
      let both = lc @ rc in
      if not (distinct (ids both)) then Error "Join: overlapping column identifiers"
      else
        let* pty = S.type_of (Props.env_of both) pred in
        if not (DT.equal pty TBool) then Error "Join predicate is not boolean"
        else if not (Ident.Set.subset (S.columns pred) (Ident.Set.of_list (ids both))) then
          Error "Join predicate references out-of-scope columns"
        else
          let pad = List.map (fun (c : Props.col_info) -> { c with nullable = true }) in
          match kind with
          | Cross -> if S.equal pred S.true_ then Ok both else Error "Cross join with a predicate"
          | Inner -> Ok both
          | LeftOuter -> Ok (lc @ pad rc)
          | RightOuter -> Ok (pad lc @ rc)
          | FullOuter -> Ok (pad lc @ pad rc)
          | Semi | AntiSemi -> Ok lc)
    | GroupBy { keys; aggs; child } ->
      let* cols = schema cat child in
      let* kcols =
        all_ok
          (fun k ->
            match List.find_opt (fun (c : Props.col_info) -> Ident.equal c.id k) cols with
            | Some c -> Ok c
            | None -> Error ("GroupBy key not in child: " ^ Ident.to_sql k))
          keys
      in
      let* acols =
        all_ok
          (fun (id, agg) ->
            let* ty = Aggregate.result_type (Props.env_of cols) agg in
            let nullable =
              match agg with Aggregate.CountStar | Aggregate.Count _ -> false | _ -> true
            in
            Ok { Props.id; ty; nullable })
          aggs
      in
      let out = kcols @ acols in
      if aggs = [] && keys = [] then Error "GroupBy: no keys and no aggregates"
      else if not (distinct (ids out)) then Error "GroupBy: duplicate output columns"
      else Ok out
    | UnionAll (a, b) | Union (a, b) | Intersect (a, b) | Except (a, b) ->
      let* ac = schema cat a in
      let* bc = schema cat b in
      if List.length ac <> List.length bc then
        Error "set operation: children have different arities"
      else if
        not
          (List.for_all2 (fun (x : Props.col_info) (y : Props.col_info) -> DT.equal x.ty y.ty) ac bc)
      then Error "set operation: column type mismatch"
      else
        Ok
          (List.map2
             (fun (x : Props.col_info) (y : Props.col_info) ->
               { x with nullable = x.nullable || y.nullable })
             ac bc)
    | Distinct child -> schema cat child
    | Sort { keys; child } ->
      let* cols = schema cat child in
      let out = Ident.Set.of_list (ids cols) in
      if List.for_all (fun (k, _) -> Ident.Set.mem k out) keys then Ok cols
      else Error "Sort key not in child output"
    | Limit { count; child } ->
      if count < 0 then Error "Limit: negative count" else schema cat child

  let output_idents cat t =
    match schema cat t with
    | Ok cols -> Ident.Set.of_list (ids cols)
    | Error _ -> Ident.Set.empty

  let rec keys cat (t : L.t) : Ident.Set.t list =
    match t with
    | Get { table; alias } -> (
      match Catalog.find cat table with
      | None -> []
      | Some tb ->
        List.map
          (fun key -> Ident.Set.of_list (List.map (Ident.make alias) key))
          (Schema.keys tb.schema))
    | Filter { child; _ } | Sort { child; _ } | Limit { child; _ } -> keys cat child
    | Project { cols; child } ->
      let exports =
        List.filter_map (fun (id, e) -> match e with S.Col c -> Some (c, id) | _ -> None) cols
      in
      List.filter_map
        (fun key ->
          Ident.Set.fold
            (fun k acc ->
              Option.bind acc (fun s ->
                  Option.map
                    (fun (_, out) -> Ident.Set.add out s)
                    (List.find_opt (fun (c, _) -> Ident.equal c k) exports)))
            key (Some Ident.Set.empty))
        (keys cat child)
    | Join { kind; pred; left; right } -> (
      let lk = keys cat left and rk = keys cat right in
      let lcols, rcols =
        Props.equi_join_columns pred (output_idents cat left) (output_idents cat right)
      in
      let on_key cols ks = List.exists (fun k -> Ident.Set.subset k cols) ks in
      let combined = List.concat_map (fun a -> List.map (Ident.Set.union a) rk) lk in
      match kind with
      | Semi | AntiSemi -> lk
      | Inner ->
        (if on_key rcols rk then lk else []) @ (if on_key lcols lk then rk else []) @ combined
      | Cross -> combined
      | LeftOuter -> (if on_key rcols rk then lk else []) @ combined
      | RightOuter -> (if on_key lcols lk then rk else []) @ combined
      | FullOuter -> [])
    | GroupBy { keys = gks; _ } -> [ Ident.Set.of_list gks ]
    | Distinct child -> [ output_idents cat child ]
    | Union _ | Intersect _ | Except _ -> [ output_idents cat t ]
    | UnionAll _ -> []
end

let tpch = Storage.Datagen.tpch ~scale:0.001 ()

(* A valid tree of one catalog (the micro and TPC-H catalogs alternate
   by seed), possibly broken at one random node by a break that is
   ill-formed under both catalogs. *)
let gen_case seed =
  let g = Storage.Prng.create seed in
  let home = if seed mod 2 = 0 then cat else tpch in
  let t = Core.Random_gen.generate ~max_ops:6 { Core.Arggen.g; cat = home } in
  let breaks =
    [| (fun t -> L.Filter { pred = S.int 1; child = t });
       (fun t -> L.Project { cols = []; child = t });
       (fun t -> L.Limit { count = -1; child = t });
       (fun t -> L.Join { kind = L.Inner; pred = S.true_; left = t; right = t });
       (fun t -> L.UnionAll (t, L.Get { table = "nope"; alias = "n" }));
       (fun t -> L.Sort { keys = [ (id "q" "missing", L.Asc) ]; child = t }) |]
  in
  let size = L.size t in
  let target = Storage.Prng.int g (2 * size) in
  let broken =
    if target >= size then t
    else begin
      let i = ref (-1) in
      let rec go t =
        incr i;
        if !i = target then breaks.(Storage.Prng.int g (Array.length breaks)) t
        else L.with_children t (List.map go (L.children t))
      in
      go t
    end
  in
  (home, broken)

let prop_node_memo_matches_oracle =
  QCheck.Test.make ~name:"node memo equals the memo-free reference" ~count:300
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let home, t = gen_case seed in
      let keys_equal = List.equal Ident.Set.equal in
      (* Asked under its own catalog, then under the other one (whose
         tables it does not name), then its own again: the memo must
         flush on each switch. *)
      let other = if home == cat then tpch else cat in
      List.for_all
        (fun asked ->
          L.fold
            (fun ok sub ->
              ok
              && (Props.schema asked sub = Oracle.schema asked sub
                 || QCheck.Test.fail_reportf "schema differs on\n%s" (L.to_string sub))
              && (Ident.Set.equal (Props.output_idents asked sub)
                    (Oracle.output_idents asked sub)
                 || QCheck.Test.fail_reportf "output idents differ on\n%s" (L.to_string sub))
              && (keys_equal (Props.keys asked sub) (Oracle.keys asked sub)
                 || QCheck.Test.fail_reportf "keys differ on\n%s" (L.to_string sub)))
            true t)
        [ home; other; home ])

let test_memo_cleared () =
  let fill () =
    ignore (Props.keys cat inner);
    check bool_t "memo filled" true (Props.memo_entries () > 0)
  in
  fill ();
  Hashcons.clear ();
  check int_t "empty after Hashcons.clear" 0 (Props.memo_entries ());
  fill ();
  Props.clear ();
  check int_t "empty after Props.clear" 0 (Props.memo_entries ())

let suite =
  [ ( "relalg.props",
      [ Alcotest.test_case "get schema" `Quick test_get_schema;
        Alcotest.test_case "join schemas" `Quick test_join_schemas;
        Alcotest.test_case "join errors" `Quick test_join_errors;
        Alcotest.test_case "groupby schema" `Quick test_groupby_schema;
        Alcotest.test_case "set operations" `Quick test_setop_schema;
        Alcotest.test_case "project schema" `Quick test_project_schema;
        Alcotest.test_case "keys: base/filter" `Quick test_keys_base_and_filter;
        Alcotest.test_case "keys: joins" `Quick test_keys_joins;
        Alcotest.test_case "keys: groupby/distinct" `Quick test_keys_groupby_distinct;
        Alcotest.test_case "keys: projection" `Quick test_keys_project_translation;
        Alcotest.test_case "equi-join columns" `Quick test_equi_join_columns;
        Alcotest.test_case "validate" `Quick test_validate;
        QCheck_alcotest.to_alcotest prop_node_memo_matches_oracle;
        Alcotest.test_case "memo dropped by clear" `Quick test_memo_cleared ] ) ]
