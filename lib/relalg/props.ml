open Storage
module H = Hashcons

type col_info = { id : Ident.t; ty : Datatype.t; nullable : bool }

let ( let* ) = Result.bind

(* Derived properties are asked for millions of times during rule
   exploration, mostly of subtrees the engine has already interned. They
   are memoized per hash-cons node, keyed by its id, and each node's
   entry is derived one operator at a time from its kids' entries: a
   lookup hashes one int, and a miss costs one payload, never a walk of
   the subtree. An entry holds the schema (every other property needs
   it) and, filled on first use, the candidate keys. Output idents are
   rebuilt from the memoized schema on each call: a stored set per node
   raised peak memory more than rebuilding costs. The memo is per catalog — compared physically, flushed when another
   one shows up — and domain-local ([Domain.DLS]), so parallel workers
   memoize without synchronization. Ids are never reused, so an entry
   cannot outlive its node's meaning; [Hashcons.clear] drops the memo
   anyway, to free it with the nodes. *)
type entry = {
  schema : (col_info list, string) result;
  mutable keys : Ident.Set.t list option;
}

module Itbl = Hashtbl.Make (Int)

type memo = { mutable owner : Catalog.t option; table : entry Itbl.t }

let memo_key = Domain.DLS.new_key (fun () -> { owner = None; table = Itbl.create 4096 })

let clear () =
  let m = Domain.DLS.get memo_key in
  m.owner <- None;
  Itbl.reset m.table

let () = H.on_clear clear
let memo_entries () = Itbl.length (Domain.DLS.get memo_key).table

let table_for cat =
  let m = Domain.DLS.get memo_key in
  (match m.owner with
  | Some c when c == cat -> ()
  | _ ->
    Itbl.reset m.table;
    m.owner <- Some cat);
  m.table

let env_of cols : Scalar.env =
 fun id ->
  List.find_map
    (fun c -> if Ident.equal c.id id then Some c.ty else None)
    cols

let distinct_idents ids =
  let sorted = List.sort_uniq Ident.compare ids in
  List.length sorted = List.length ids

(* The entry of [n], its kids' first. *)
let rec entry tbl cat (n : H.node) =
  match Itbl.find_opt tbl n.H.id with
  | Some e -> e
  | None ->
    let e = { schema = schema_here tbl cat n; keys = None } in
    Itbl.replace tbl n.H.id e;
    e

(* The schema of [n]'s root operator, from its kids' memoized schemas. *)
and schema_here tbl cat (n : H.node) : (col_info list, string) result =
  let kid i = (entry tbl cat n.H.kids.(i)).schema in
  match n.H.repr with
  | Get { table; alias } -> (
    match Catalog.find cat table with
    | None -> Error ("unknown table " ^ table)
    | Some tb ->
      Ok
        (List.map
           (fun (c : Schema.column) ->
             { id = Ident.make alias c.col_name;
               ty = c.col_type;
               nullable = c.nullable })
           tb.schema.columns))
  | Filter { pred; _ } ->
    let* cols = kid 0 in
    let* ty = Scalar.type_of (env_of cols) pred in
    if Datatype.equal ty TBool then Ok cols
    else Error "Filter predicate is not boolean"
  | Project { cols = items; _ } ->
    let* cols = kid 0 in
    let env = env_of cols in
    if not (distinct_idents (List.map fst items)) then
      Error "Project: duplicate output columns"
    else if items = [] then Error "Project: empty column list"
    else
      let rec build = function
        | [] -> Ok []
        | (id, e) :: rest ->
          let* ty = Scalar.type_of env e in
          let nullable =
            match e with
            | Scalar.Col c ->
              List.exists (fun ci -> Ident.equal ci.id c && ci.nullable) cols
            | _ -> true
          in
          let* tail = build rest in
          Ok ({ id; ty; nullable } :: tail)
      in
      build items
  | Join { kind; pred; _ } -> (
    let* lc = kid 0 in
    let* rc = kid 1 in
    let both = lc @ rc in
    if not (distinct_idents (List.map (fun c -> c.id) both)) then
      Error "Join: overlapping column identifiers"
    else
      let* pty = Scalar.type_of (env_of both) pred in
      if not (Datatype.equal pty TBool) then Error "Join predicate is not boolean"
      else
        let scoped =
          Ident.Set.subset (Scalar.columns pred)
            (Ident.Set.of_list (List.map (fun c -> c.id) both))
        in
        if not scoped then Error "Join predicate references out-of-scope columns"
        else
          let nullable_all = List.map (fun c -> { c with nullable = true }) in
          match kind with
          | Cross ->
            if Scalar.equal pred Scalar.true_ then Ok both
            else Error "Cross join with a predicate"
          | Inner -> Ok both
          | LeftOuter -> Ok (lc @ nullable_all rc)
          | RightOuter -> Ok (nullable_all lc @ rc)
          | FullOuter -> Ok (nullable_all lc @ nullable_all rc)
          | Semi | AntiSemi -> Ok lc)
  | GroupBy { keys; aggs; _ } ->
    let* cols = kid 0 in
    let env = env_of cols in
    let find_key k =
      match List.find_opt (fun c -> Ident.equal c.id k) cols with
      | Some c -> Ok c
      | None -> Error ("GroupBy key not in child: " ^ Ident.to_sql k)
    in
    let rec build_keys = function
      | [] -> Ok []
      | k :: rest ->
        let* c = find_key k in
        let* tail = build_keys rest in
        Ok (c :: tail)
    in
    let rec build_aggs = function
      | [] -> Ok []
      | (id, agg) :: rest ->
        let* ty = Aggregate.result_type env agg in
        let nullable =
          (* COUNT never returns NULL; other aggregates do on empty groups
             (only possible for global aggregation) or NULL-only groups. *)
          match agg with Aggregate.CountStar | Aggregate.Count _ -> false | _ -> true
        in
        let* tail = build_aggs rest in
        Ok ({ id; ty; nullable } :: tail)
    in
    let* kcols = build_keys keys in
    let* acols = build_aggs aggs in
    let out = kcols @ acols in
    if aggs = [] && keys = [] then Error "GroupBy: no keys and no aggregates"
    else if not (distinct_idents (List.map (fun c -> c.id) out)) then
      Error "GroupBy: duplicate output columns"
    else Ok out
  | UnionAll _ | Union _ | Intersect _ | Except _ ->
    let* ac = kid 0 in
    let* bc = kid 1 in
    if List.length ac <> List.length bc then
      Error "set operation: children have different arities"
    else
      let compatible =
        List.for_all2 (fun x y -> Datatype.equal x.ty y.ty) ac bc
      in
      if not compatible then Error "set operation: column type mismatch"
      else
        Ok
          (List.map2
             (fun x y -> { x with nullable = x.nullable || y.nullable })
             ac bc)
  | Distinct _ -> kid 0
  | Sort { keys; _ } ->
    let* cols = kid 0 in
    let ids = Ident.Set.of_list (List.map (fun c -> c.id) cols) in
    if List.for_all (fun (k, _) -> Ident.Set.mem k ids) keys then Ok cols
    else Error "Sort key not in child output"
  | Limit { count; _ } ->
    if count < 0 then Error "Limit: negative count" else kid 0

let oids_of tbl cat n =
  match (entry tbl cat n).schema with
  | Ok cols -> Ident.Set.of_list (List.map (fun c -> c.id) cols)
  | Error _ -> Ident.Set.empty

let equi_join_columns pred left right =
  List.fold_left
    (fun (ls, rs) conjunct ->
      match conjunct with
      | Scalar.Cmp (Scalar.Eq, Scalar.Col a, Scalar.Col b) ->
        if Ident.Set.mem a left && Ident.Set.mem b right then
          (Ident.Set.add a ls, Ident.Set.add b rs)
        else if Ident.Set.mem b left && Ident.Set.mem a right then
          (Ident.Set.add b ls, Ident.Set.add a rs)
        else (ls, rs)
      | _ -> (ls, rs))
    (Ident.Set.empty, Ident.Set.empty)
    (Scalar.conjuncts pred)

let rec keys_of tbl cat n =
  let e = entry tbl cat n in
  match e.keys with
  | Some k -> k
  | None ->
    let k = keys_here tbl cat n in
    e.keys <- Some k;
    k

(* The candidate keys of [n]'s root operator, from its kids' memoized
   keys and output idents. *)
and keys_here tbl cat (n : H.node) : Ident.Set.t list =
  let kid_keys i = keys_of tbl cat n.H.kids.(i) in
  let kid_oids i = oids_of tbl cat n.H.kids.(i) in
  match n.H.repr with
  | Get { table; alias } -> (
    match Catalog.find cat table with
    | None -> []
    | Some tb ->
      List.map
        (fun key -> Ident.Set.of_list (List.map (Ident.make alias) key))
        (Schema.keys tb.schema))
  | Filter _ | Sort _ | Limit _ -> kid_keys 0
  | Project { cols; _ } ->
    (* A child key survives when each of its columns is exported verbatim. *)
    let exports =
      List.filter_map
        (fun (id, e) -> match e with Scalar.Col c -> Some (c, id) | _ -> None)
        cols
    in
    let translate key =
      Ident.Set.fold
        (fun k acc ->
          match acc with
          | None -> None
          | Some s -> (
            match List.find_opt (fun (c, _) -> Ident.equal c k) exports with
            | Some (_, out) -> Some (Ident.Set.add out s)
            | None -> None))
        key (Some Ident.Set.empty)
    in
    List.filter_map translate (kid_keys 0)
  | Join { kind; pred; _ } -> (
    let lk = kid_keys 0 and rk = kid_keys 1 in
    let lcols, rcols = equi_join_columns pred (kid_oids 0) (kid_oids 1) in
    let right_on_key = List.exists (fun k -> Ident.Set.subset k rcols) rk in
    let left_on_key = List.exists (fun k -> Ident.Set.subset k lcols) lk in
    let combined =
      List.concat_map (fun a -> List.map (fun b -> Ident.Set.union a b) rk) lk
    in
    match kind with
    | Semi | AntiSemi -> lk
    | Inner ->
      (if right_on_key then lk else [])
      @ (if left_on_key then rk else [])
      @ combined
    | Cross -> combined
    | LeftOuter -> (if right_on_key then lk else []) @ combined
    | RightOuter -> (if left_on_key then rk else []) @ combined
    | FullOuter -> [])
  | GroupBy { keys = gks; _ } -> [ Ident.Set.of_list gks ]
  | Distinct _ -> [ kid_oids 0 ]
  | Union _ | Intersect _ | Except _ ->
    (* Set semantics: the full column list is a key. *)
    [ oids_of tbl cat n ]
  | UnionAll _ -> []

module Node = struct
  let schema cat n = (entry (table_for cat) cat n).schema
  let output_idents cat n = oids_of (table_for cat) cat n
  let keys cat n = keys_of (table_for cat) cat n

  let has_key_within cat n cols =
    List.exists (fun k -> Ident.Set.subset k cols) (keys cat n)

  let validate cat (n : H.node) =
    (* [schema] already checks scoping and typing of every operator;
       additionally require globally unique Get aliases. *)
    let aliases = Logical.aliases n.H.repr in
    if List.length (List.sort_uniq String.compare aliases) <> List.length aliases then
      Error "duplicate relation aliases"
    else
      let* _ = schema cat n in
      Ok ()
end

let schema cat t = Node.schema cat (H.intern t)

let schema_exn cat t =
  match schema cat t with
  | Ok cols -> cols
  | Error msg -> invalid_arg ("Props.schema_exn: " ^ msg)

let output_idents cat t = Node.output_idents cat (H.intern t)
let keys cat t = Node.keys cat (H.intern t)
let has_key_within cat t cols = Node.has_key_within cat (H.intern t) cols
let validate cat t = Node.validate cat (H.intern t)
