open Relalg

type t = {
  name : string;
  pattern : Pattern.t;
  apply : Storage.Catalog.t -> Hashcons.node -> Hashcons.node list;
  fingerprint : string;
  pattern_fp : string;
}

(* Matched-rule collector: a per-domain slot that, while set, records the
   name of every rule whose pattern accepted a tree. The record happens in
   the [guarded] wrapper below — the single chokepoint every registered
   rule's pattern check goes through — so the collected set is exactly
   the rules whose bodies could have influenced whatever ran under the
   collector (a rule whose pattern never matched contributed nothing to
   any exploration). The slot is domain-local: wrap work that runs wholly
   on one domain (a pool task body, or inline code). *)
let collector_key : (string, unit) Hashtbl.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let collect_matched f =
  let slot = Domain.DLS.get collector_key in
  let saved = !slot in
  let tbl = Hashtbl.create 32 in
  slot := Some tbl;
  Fun.protect
    ~finally:(fun () -> slot := saved)
    (fun () ->
      let r = f () in
      let names = Hashtbl.fold (fun name () acc -> name :: acc) tbl [] in
      (r, List.sort String.compare names))

let record_matched names =
  match !(Domain.DLS.get collector_key) with
  | Some tbl -> List.iter (fun name -> Hashtbl.replace tbl name ()) names
  | None -> ()

let make ~fingerprint name pattern apply =
  let pattern_fp = Digest.to_hex (Digest.string ("pattern\x00" ^ Pattern.to_xml pattern)) in
  let guarded cat (n : Hashcons.node) =
    if Pattern.matches pattern n.repr then begin
      (match !(Domain.DLS.get collector_key) with
      | Some tbl -> Hashtbl.replace tbl name ()
      | None -> ());
      apply cat n
    end
    else begin
      (* A rule whose [apply] would return substitutes on a root its own
         pattern rejects is mis-declared: the engine (which consults the
         pattern first) silently never fires it. Probe only when metrics
         are on so the hot path keeps its single-branch cost. *)
      if Obs.Metrics.enabled () then
        (match apply cat n with
        | exception _ -> ()
        | [] -> ()
        | _ :: _ ->
          Obs.Metrics.incr
            (Obs.Metrics.counter ~label:name "optimizer.rule.pattern_mismatch"));
      []
    end
  in
  { name; pattern; apply = guarded; fingerprint; pattern_fp }

let rec subst f (e : Scalar.t) : Scalar.t =
  match e with
  | Scalar.Col id -> ( match f id with Some e' -> e' | None -> e)
  | Scalar.Const _ -> e
  | Scalar.Neg a -> Scalar.Neg (subst f a)
  | Scalar.Not a -> Scalar.Not (subst f a)
  | Scalar.IsNull a -> Scalar.IsNull (subst f a)
  | Scalar.IsNotNull a -> Scalar.IsNotNull (subst f a)
  | Scalar.Arith (op, a, b) -> Scalar.Arith (op, subst f a, subst f b)
  | Scalar.Cmp (op, a, b) -> Scalar.Cmp (op, subst f a, subst f b)
  | Scalar.And (a, b) -> Scalar.And (subst f a, subst f b)
  | Scalar.Or (a, b) -> Scalar.Or (subst f a, subst f b)

let positional_rename from_cols to_cols =
  let table =
    List.map2
      (fun (a : Props.col_info) (b : Props.col_info) -> (a.id, b.id))
      from_cols to_cols
  in
  fun id ->
    match List.find_opt (fun (a, _) -> Ident.equal a id) table with
    | Some (_, b) -> b
    | None -> id

let split_by_scope pred cols =
  let inside, outside =
    List.partition
      (fun conjunct ->
        let used = Scalar.columns conjunct in
        (not (Ident.Set.is_empty used)) && Ident.Set.subset used cols)
      (Scalar.conjuncts pred)
  in
  (Scalar.conj inside, Scalar.conj outside)

let identity_project cols child =
  Logical.Project
    { cols = List.map (fun (c : Props.col_info) -> (c.id, Scalar.Col c.id)) cols;
      child }

let align cat ~reference (n : Hashcons.node) =
  match (Props.Node.schema cat reference, Props.Node.schema cat n) with
  | Error e, _ -> Error ("lhs schema: " ^ e)
  | _, Error e -> Error ("rhs schema: " ^ e)
  | Ok ls, Ok rs ->
    let ids cols = List.map (fun (c : Props.col_info) -> c.id) cols in
    let lid = ids ls and rid = ids rs in
    let over payload = Ok (Hashcons.make payload [| n |]) in
    if List.equal Ident.equal lid rid then Ok n
    else if Ident.Set.equal (Ident.Set.of_list lid) (Ident.Set.of_list rid) then
      over (identity_project ls n.repr)
    else if
      List.length ls = List.length rs
      && List.for_all2 (fun (a : Props.col_info) (b : Props.col_info) -> a.ty = b.ty) ls rs
    then
      over
        (Logical.Project
           { cols = List.map2 (fun l r -> (l, Scalar.Col r)) lid rid; child = n.repr })
    else Error "incomparable output schemas"

let null_safe_row_eq left_cols right_cols =
  let pair (a : Props.col_info) (b : Props.col_info) =
    let ca = Scalar.Col a.id and cb = Scalar.Col b.id in
    Scalar.Or
      (Scalar.Cmp (Scalar.Eq, ca, cb), Scalar.And (Scalar.IsNull ca, Scalar.IsNull cb))
  in
  Scalar.conj (List.map2 pair left_cols right_cols)
