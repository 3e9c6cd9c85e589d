open Relalg

type t =
  | TableScan of { table : string; alias : string }
  | FilterOp of { pred : Scalar.t; child : t }
  | ComputeScalar of { cols : (Ident.t * Scalar.t) list; child : t }
  | NestedLoopsJoin of {
      kind : Logical.join_kind;
      pred : Scalar.t;
      left : t;
      right : t;
    }
  | HashJoin of {
      kind : Logical.join_kind;
      left_keys : Ident.t list;
      right_keys : Ident.t list;
      residual : Scalar.t;
      left : t;
      right : t;
    }
  | MergeJoin of {
      left_keys : Ident.t list;
      right_keys : Ident.t list;
      residual : Scalar.t;
      left : t;
      right : t;
    }
  | HashAggregate of {
      keys : Ident.t list;
      aggs : (Ident.t * Aggregate.t) list;
      child : t;
    }
  | StreamAggregate of {
      keys : Ident.t list;
      aggs : (Ident.t * Aggregate.t) list;
      child : t;
    }
  | SortOp of { keys : (Ident.t * Logical.sort_dir) list; child : t }
  | Concat of t * t
  | HashUnion of t * t
  | HashIntersect of t * t
  | HashExcept of t * t
  | HashDistinct of t
  | LimitOp of { count : int; child : t }

let children = function
  | TableScan _ -> []
  | FilterOp { child; _ }
  | ComputeScalar { child; _ }
  | HashAggregate { child; _ }
  | StreamAggregate { child; _ }
  | SortOp { child; _ }
  | HashDistinct child
  | LimitOp { child; _ } ->
    [ child ]
  | NestedLoopsJoin { left; right; _ }
  | HashJoin { left; right; _ }
  | MergeJoin { left; right; _ } ->
    [ left; right ]
  | Concat (a, b) | HashUnion (a, b) | HashIntersect (a, b) | HashExcept (a, b) ->
    [ a; b ]

let rec size t = 1 + List.fold_left (fun acc c -> acc + size c) 0 (children t)

let op_name = function
  | TableScan _ -> "TableScan"
  | FilterOp _ -> "Filter"
  | ComputeScalar _ -> "ComputeScalar"
  | NestedLoopsJoin _ -> "NestedLoopsJoin"
  | HashJoin _ -> "HashJoin"
  | MergeJoin _ -> "MergeJoin"
  | HashAggregate _ -> "HashAggregate"
  | StreamAggregate _ -> "StreamAggregate"
  | SortOp _ -> "Sort"
  | Concat _ -> "Concat"
  | HashUnion _ -> "HashUnion"
  | HashIntersect _ -> "HashIntersect"
  | HashExcept _ -> "HashExcept"
  | HashDistinct _ -> "HashDistinct"
  | LimitOp _ -> "Limit"

let equal (a : t) (b : t) = a = b

(* Full-depth structural hash (the plan analogue of [Logical.hash]):
   every constructor contributes a distinct tag and every payload —
   scalars, identifiers, aggregates, join kinds, sort keys — is folded
   in, so plans differing only deep inside an expression still get
   distinct fingerprints. Agrees with [equal] by construction. *)
let fingerprint t =
  let ( ** ) = Scalar.hash_combine in
  let hash_idents h ids = List.fold_left (fun h i -> h ** Ident.hash i) h ids in
  let rec go t =
    match t with
    | TableScan { table; alias } ->
      (1 ** Hashtbl.hash table) ** Hashtbl.hash alias
    | FilterOp { pred; child } -> (2 ** Scalar.hash pred) ** go child
    | ComputeScalar { cols; child } ->
      List.fold_left
        (fun h (id, e) -> (h ** Ident.hash id) ** Scalar.hash e)
        3 cols
      ** go child
    | NestedLoopsJoin { kind; pred; left; right } ->
      (((4 ** Hashtbl.hash kind) ** Scalar.hash pred) ** go left) ** go right
    | HashJoin { kind; left_keys; right_keys; residual; left; right } ->
      (hash_idents (hash_idents (5 ** Hashtbl.hash kind) left_keys) right_keys
      ** Scalar.hash residual)
      ** go left ** go right
    | MergeJoin { left_keys; right_keys; residual; left; right } ->
      (hash_idents (hash_idents 6 left_keys) right_keys
      ** Scalar.hash residual)
      ** go left ** go right
    | HashAggregate { keys; aggs; child } -> agg 7 keys aggs child
    | StreamAggregate { keys; aggs; child } -> agg 8 keys aggs child
    | SortOp { keys; child } ->
      List.fold_left
        (fun h (id, dir) -> (h ** Ident.hash id) ** Hashtbl.hash dir)
        9 keys
      ** go child
    | Concat (a, b) -> (10 ** go a) ** go b
    | HashUnion (a, b) -> (11 ** go a) ** go b
    | HashIntersect (a, b) -> (12 ** go a) ** go b
    | HashExcept (a, b) -> (13 ** go a) ** go b
    | HashDistinct a -> 14 ** go a
    | LimitOp { count; child } -> (15 ** count) ** go child
  and agg tag keys aggs child =
    List.fold_left
      (fun h (id, a) -> (h ** Ident.hash id) ** Aggregate.hash a)
      (hash_idents tag keys) aggs
    ** go child
  in
  go t land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = fingerprint
end)

let detail = function
  | TableScan { table; alias } -> Printf.sprintf "(%s AS %s)" table alias
  | FilterOp { pred; _ } -> Printf.sprintf "(%s)" (Scalar.to_sql pred)
  | ComputeScalar { cols; _ } ->
    let item (id, e) = Ident.to_sql id ^ " := " ^ Scalar.to_sql e in
    Printf.sprintf "(%s)" (String.concat ", " (List.map item cols))
  | NestedLoopsJoin { pred; _ } -> Printf.sprintf "(%s)" (Scalar.to_sql pred)
  | HashJoin { left_keys; right_keys; residual; _ }
  | MergeJoin { left_keys; right_keys; residual; _ } ->
    Printf.sprintf "(%s = %s%s)"
      (String.concat ", " (List.map Ident.to_sql left_keys))
      (String.concat ", " (List.map Ident.to_sql right_keys))
      (if Scalar.equal residual Scalar.true_ then ""
       else "; residual " ^ Scalar.to_sql residual)
  | HashAggregate { keys; aggs; _ } | StreamAggregate { keys; aggs; _ } ->
    let agg (id, a) = Ident.to_sql id ^ " := " ^ Aggregate.to_sql a in
    Printf.sprintf "(keys=[%s]; %s)"
      (String.concat ", " (List.map Ident.to_sql keys))
      (String.concat ", " (List.map agg aggs))
  | SortOp { keys; _ } ->
    let key (id, dir) =
      Ident.to_sql id ^ (match dir with Logical.Asc -> " ASC" | Logical.Desc -> " DESC")
    in
    Printf.sprintf "(%s)" (String.concat ", " (List.map key keys))
  | LimitOp { count; _ } -> Printf.sprintf "(%d)" count
  | Concat _ | HashUnion _ | HashIntersect _ | HashExcept _ | HashDistinct _ -> ""

(* Printed plans spell out the join kind ("HashLeftOuterJoin"); metric
   labels use the kind-less [op_name]. *)
let display_name = function
  | NestedLoopsJoin { kind; _ } ->
    "NestedLoops" ^ Logical.kind_name (Logical.KJoin kind)
  | HashJoin { kind; _ } -> "Hash" ^ Logical.kind_name (Logical.KJoin kind)
  | t -> op_name t

let rec pp_indent fmt depth t =
  Format.fprintf fmt "%s%s%s" (String.make (2 * depth) ' ') (display_name t)
    (detail t);
  List.iter
    (fun c ->
      Format.pp_print_cut fmt ();
      pp_indent fmt (depth + 1) c)
    (children t)

let pp fmt t = Format.fprintf fmt "@[<v>%a@]" (fun fmt -> pp_indent fmt 0) t
let to_string t = Format.asprintf "%a" pp t
