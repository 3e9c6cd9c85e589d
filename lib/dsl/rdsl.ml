(* Rules as data: a declarative pattern->rewrite language over relation /
   predicate / projection / sort-key metavariables, an interpreter
   compiling a term pair into the engine's [Rule.t], and a bounded
   set-theoretic verification oracle over symbolic tables (module
   [Verify]).

   Every registered exploration rule, seeded fault and discovered rule
   is a term of this language. The compiler's construct-by-construct
   semantics are pinned by two golden substitute digests over fixed
   tree sets (test/test_dsl.ml): the registered rules', computed when
   the last families were still hand-written closures, and the
   discovered rules', computed when they still had their own matcher
   and builder. *)

open Relalg
module L = Logical
module H = Hashcons
module S = Scalar

type rv = int
type pv = int
type dv = int
type sv = int

(* A column scope a predicate can be split against. *)
type scope =
  | Rels of rv list  (* the output columns of these relation metavariables *)
  | Keys  (* the grouping keys of the rule's (single) GroupBy binder *)

(* Predicate expressions. [Ppart]/[Presid] are the two halves of
   [Rule.split_by_scope]; [Pfirst]/[Prest] the first-conjunct split of
   SelectSplit; [Prename] the positional rename applied on the right
   branch of a set operation; [Psubst] substitution of a projection's
   definitions into a predicate; [Prow_eq] the null-safe positional
   equality of two relations' rows. *)
type pexp =
  | Ptrue
  | Pvar of pv
  | Pand of pexp * pexp
  | Ppart of pexp * scope
  | Presid of pexp * scope
  | Pfirst of pv
  | Prest of pv
  | Prename of pexp * rv * rv
  | Psubst of dv * pexp
  | Prow_eq of rv * rv

(* Projection-definition expressions: a bound definition list, the
   composition outer-after-inner of ProjectMerge, or the positional
   rename defining the first relation's columns as the second's. *)
type dexp = Dvar of dv | Dcompose of dv * dv | Drename of rv * rv

(* Grouping keys of a GroupBy term: the binder's own keys (the only form
   allowed on the lhs), those keys followed by every output column of a
   relation, or only the keys that are a relation's columns. *)
type gkeys = Gkeys | Gkeys_with of rv | Gkeys_within of rv

(* Tree terms. On the lhs, [Filter]/[Join] must carry a [Pvar] binder
   (a [Filter] may instead carry [Pand (Pvar i, Pvar j)], binding the
   predicate's first conjunct to [i] and the rest to [j]), [Proj] a
   [Dvar] binder, [Sort] binds its keys, and [GroupBy Gkeys] binds the
   keys/aggs slot; a relation or predicate variable bound twice must
   match equal values. [Filter_nontrivial] (rhs only) wraps a filter
   only when its predicate is not [true]; [Keep_schema] (rhs only) is
   the identity projection restoring the lhs root's output columns;
   [Align] (rhs only) makes its term export the lhs root's schema
   ([Rule.align]), or the rule does not fire; [Degenerate] (rhs only) is
   the bound GroupBy over single-row groups: the keys and each
   aggregate's value on its one row. *)
type term =
  | Var of rv
  | Filter of pexp * term
  | Filter_nontrivial of pexp * term
  | Join of L.join_kind * pexp * term * term
  | Proj of dexp * term
  | GroupBy of gkeys * term
  | Degenerate of term
  | Sort of sv * term
  | Distinct of term
  | UnionAll of term * term
  | Union of term * term
  | Intersect of term * term
  | Except of term * term
  | Keep_schema of term
  | Align of term

(* Side-conditions. The first group is semantic (the rewrite is unsound
   without them; the oracle models them); the second is firing-only (they
   restrict when the rule fires, not when it is sound; the oracle ignores
   them). *)
type side =
  | Null_rejecting of pv * rv list
  | Key_within_equi of pv * rv * rv
      (* equi-join columns of the pv on the second rv's side cover a
         candidate key of it *)
  | Trivial of pv
  | Identity_proj of dv * rv
  | Scoped_within of pv * rv list
  | Has_key of rv
  | Key_within_keys of rv  (* a key of rv among the grouping keys it supplies *)
  | Agg_free of pv  (* the pv reads no aggregate output *)
  | Aggs_within of rv list  (* every aggregate reads only these relations *)
  | Keyed_on of pv * rv  (* the pv reads rv's columns only through grouping keys *)
  | Keys_meet of rv  (* some grouping key is a column of rv *)
  (* firing-only: *)
  | Splittable of pv  (* >= 2 conjuncts *)
  | Some_pushed of (pexp * scope) list  (* at least one part is non-trivial *)

type rule = { name : string; lhs : term; rhs : term; sides : side list }

let firing_only = function
  | Splittable _ | Some_pushed _ -> true
  | Null_rejecting _ | Key_within_equi _ | Trivial _ | Identity_proj _
  | Scoped_within _ | Has_key _ | Key_within_keys _ | Agg_free _ | Aggs_within _
  | Keyed_on _ | Keys_meet _ ->
    false

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)
(* ------------------------------------------------------------------ *)

let rec pattern_of_term = function
  | Var _ -> Pattern.Any
  | Filter (_, t) | Filter_nontrivial (_, t) ->
    Pattern.Op (L.KFilter, [ pattern_of_term t ])
  | Join (k, _, a, b) ->
    Pattern.Op (L.KJoin k, [ pattern_of_term a; pattern_of_term b ])
  | Proj (_, t) | Degenerate t -> Pattern.Op (L.KProject, [ pattern_of_term t ])
  | GroupBy (_, t) -> Pattern.Op (L.KGroupBy, [ pattern_of_term t ])
  | Sort (_, t) -> Pattern.Op (L.KSort, [ pattern_of_term t ])
  | Distinct t -> Pattern.Op (L.KDistinct, [ pattern_of_term t ])
  | UnionAll (a, b) ->
    Pattern.Op (L.KUnionAll, [ pattern_of_term a; pattern_of_term b ])
  | Union (a, b) -> Pattern.Op (L.KUnion, [ pattern_of_term a; pattern_of_term b ])
  | Intersect (a, b) ->
    Pattern.Op (L.KIntersect, [ pattern_of_term a; pattern_of_term b ])
  | Except (a, b) -> Pattern.Op (L.KExcept, [ pattern_of_term a; pattern_of_term b ])
  | Keep_schema t | Align t -> pattern_of_term t

let pattern r = pattern_of_term r.lhs

let rec term_rvars = function
  | Var r -> [ r ]
  | Filter (_, t) | Filter_nontrivial (_, t) | Proj (_, t) | GroupBy (_, t)
  | Degenerate t | Sort (_, t) | Distinct t | Keep_schema t | Align t ->
    term_rvars t
  | Join (_, _, a, b) | UnionAll (a, b) | Union (a, b) | Intersect (a, b)
  | Except (a, b) ->
    term_rvars a @ term_rvars b

let rvars r = List.sort_uniq compare (term_rvars r.lhs)

(* The aggregate outputs of a GroupBy, as a pseudo relation metavariable
   of the oracle's rows. *)
let agg_rv = -1

(* The relation metavariables contributing to a term's output row
   (Semi/AntiSemi joins and set operations output only their left side;
   a GroupBy outputs its aggregates and the relations its keys come
   from). *)
let rec output_rvs = function
  | Var r -> [ r ]
  | Filter (_, t) | Filter_nontrivial (_, t) | Proj (_, t) | Sort (_, t)
  | Distinct t | Keep_schema t | Align t ->
    output_rvs t
  | GroupBy (Gkeys_within r, _) -> [ agg_rv; r ]
  | GroupBy ((Gkeys | Gkeys_with _), t) | Degenerate t -> agg_rv :: output_rvs t
  | Join ((L.Semi | L.AntiSemi), _, a, _) -> output_rvs a
  | Join (_, _, a, b) -> output_rvs a @ output_rvs b
  | UnionAll (a, _) | Union (a, _) | Intersect (a, _) | Except (a, _) -> output_rvs a

(* The output relations a term exposes only through grouping keys. *)
let rec keyed_rvs = function
  | Var _ -> []
  | Filter (_, t) | Filter_nontrivial (_, t) | Proj (_, t) | Sort (_, t)
  | Distinct t | Keep_schema t | Align t ->
    keyed_rvs t
  | GroupBy (Gkeys, t) | Degenerate t ->
    List.filter (fun r -> r <> agg_rv) (output_rvs t)
  | GroupBy (Gkeys_with r, t) ->
    List.filter (fun r' -> r' <> agg_rv && r' <> r) (output_rvs t)
  | GroupBy (Gkeys_within r, _) -> [ r ]
  | Join ((L.Semi | L.AntiSemi), _, a, _) -> keyed_rvs a
  | Join (_, _, a, b) -> keyed_rvs a @ keyed_rvs b
  | UnionAll (a, _) | Union (a, _) | Intersect (a, _) | Except (a, _) -> keyed_rvs a

(* ------------------------------------------------------------------ *)
(* Concrete interpretation: matching, side checks, building            *)
(* ------------------------------------------------------------------ *)

(* Every relation metavariable is bound to a node of the input, so side
   conditions read properties by node id and [build] interns only the
   operators the rhs creates. *)
type env = {
  cat : Storage.Catalog.t;
  root : H.node;
  mutable rels : (rv * H.node) list;
  mutable preds : (pv * S.t) list;
  mutable defs : (dv * (Ident.t * S.t) list) list;
  mutable sorts : (sv * (Ident.t * L.sort_dir) list) list;
  mutable gb : (Ident.t list * (Ident.t * Aggregate.t) list) option;
}

let rel env r = List.assoc r env.rels
let pred env p = List.assoc p env.preds
let defs env d = List.assoc d env.defs

exception No_match

(* A variable bound a second time must meet an equal value: the same
   node for a relation (hash-consing makes that [==]), an [S.equal]
   scalar for a predicate. The lookup compares ints directly: it runs
   on every binding of every rule the engine tries. *)
let rec bound (v : int) = function
  | [] -> None
  | (v', x) :: rest -> if v = v' then Some x else bound v rest

let bind_rel env r n =
  match bound r env.rels with
  | Some n' -> if n' != n then raise No_match
  | None -> env.rels <- (r, n) :: env.rels

let bind_pred env p e =
  match bound p env.preds with
  | Some e' -> if not (S.equal e' e) then raise No_match
  | None -> env.preds <- (p, e) :: env.preds

let rec match_lhs env t (n : H.node) =
  let kid i = n.H.kids.(i) in
  match (t, n.H.repr) with
  | Var r, _ -> bind_rel env r n
  | Filter (Pvar p, t'), L.Filter { pred; _ } ->
    bind_pred env p pred;
    match_lhs env t' (kid 0)
  | Filter (Pand (Pvar i, Pvar j), t'), L.Filter { pred; _ } -> (
    match S.conjuncts pred with
    | first :: (_ :: _ as rest) ->
      bind_pred env i first;
      bind_pred env j (S.conj rest);
      match_lhs env t' (kid 0)
    | _ -> raise No_match)
  | Join (k, Pvar p, a, b), L.Join { kind; pred; _ } when kind = k ->
    bind_pred env p pred;
    match_lhs env a (kid 0);
    match_lhs env b (kid 1)
  | Proj (Dvar d, t'), L.Project { cols; _ } ->
    env.defs <- (d, cols) :: env.defs;
    match_lhs env t' (kid 0)
  | GroupBy (Gkeys, t'), L.GroupBy { keys; aggs; _ } ->
    env.gb <- Some (keys, aggs);
    match_lhs env t' (kid 0)
  | Sort (s, t'), L.Sort { keys; _ } ->
    env.sorts <- (s, keys) :: env.sorts;
    match_lhs env t' (kid 0)
  | Distinct t', L.Distinct _ -> match_lhs env t' (kid 0)
  | UnionAll (a, b), L.UnionAll _
  | Union (a, b), L.Union _
  | Intersect (a, b), L.Intersect _
  | Except (a, b), L.Except _ ->
    match_lhs env a (kid 0);
    match_lhs env b (kid 1)
  | _ -> raise No_match

let gb env = match env.gb with Some g -> g | None -> raise No_match
let out_ids env r = Props.Node.output_idents env.cat (rel env r)

let scope_ids env = function
  | Rels rvs ->
    List.fold_left (fun acc r -> Ident.Set.union acc (out_ids env r)) Ident.Set.empty rvs
  | Keys -> Ident.Set.of_list (fst (gb env))

(* The grouping keys that are columns of relation [r]. *)
let keys_within env r =
  let ids = out_ids env r in
  List.filter (fun k -> Ident.Set.mem k ids) (fst (gb env))

(* Schema lookups may fail on invalid intermediate trees; that makes the
   whole rule a no-op. *)
exception Build_failed

let schema_exn env n =
  match Props.Node.schema env.cat n with Ok c -> c | Error _ -> raise Build_failed
let lookup_def cols id =
  List.find_map (fun (out, e) -> if Ident.equal out id then Some e else None) cols

let rec eval_pexp env = function
  | Ptrue -> S.true_
  | Pvar p -> pred env p
  | Pand (a, b) -> S.And (eval_pexp env a, eval_pexp env b)
  | Ppart (e, s) -> fst (Rule.split_by_scope (eval_pexp env e) (scope_ids env s))
  | Presid (e, s) -> snd (Rule.split_by_scope (eval_pexp env e) (scope_ids env s))
  | Pfirst p -> (
    match S.conjuncts (pred env p) with c :: _ -> c | [] -> S.true_)
  | Prest p -> (
    match S.conjuncts (pred env p) with _ :: rest -> S.conj rest | [] -> S.true_)
  | Prename (e, a, b) ->
    let ac = schema_exn env (rel env a) and bc = schema_exn env (rel env b) in
    S.rename (Rule.positional_rename ac bc) (eval_pexp env e)
  | Psubst (d, e) -> Rule.subst (lookup_def (defs env d)) (eval_pexp env e)
  | Prow_eq (a, b) ->
    Rule.null_safe_row_eq (schema_exn env (rel env a)) (schema_exn env (rel env b))

let eval_dexp env = function
  | Dvar d -> defs env d
  | Dcompose (outer, inner) ->
    let inner_defs = defs env inner in
    List.map (fun (out, e) -> (out, Rule.subst (lookup_def inner_defs) e)) (defs env outer)
  | Drename (a, b) ->
    List.map2
      (fun (ca : Props.col_info) (cb : Props.col_info) -> (ca.id, S.Col cb.id))
      (schema_exn env (rel env a))
      (schema_exn env (rel env b))

let check_side env = function
  | Null_rejecting (p, rvs) -> S.is_null_rejecting (pred env p) (scope_ids env (Rels rvs))
  | Key_within_equi (p, l, r) ->
    let _, rcols = Props.equi_join_columns (pred env p) (out_ids env l) (out_ids env r) in
    Props.Node.has_key_within env.cat (rel env r) rcols
  | Trivial p -> S.equal (pred env p) S.true_
  | Identity_proj (d, r) ->
    let cols = defs env d in
    let child_cols = schema_exn env (rel env r) in
    List.length cols = List.length child_cols
    && List.for_all2
         (fun (id, e) (ci : Props.col_info) ->
           Ident.equal id ci.id
           && match e with S.Col c -> Ident.equal c ci.id | _ -> false)
         cols child_cols
  | Scoped_within (p, rvs) ->
    Ident.Set.subset (S.columns (pred env p)) (scope_ids env (Rels rvs))
  | Has_key r -> Props.Node.keys env.cat (rel env r) <> []
  | Key_within_keys r ->
    Props.Node.has_key_within env.cat (rel env r) (Ident.Set.of_list (keys_within env r))
  | Agg_free p ->
    let agg_ids = Ident.Set.of_list (List.map fst (snd (gb env))) in
    Ident.Set.is_empty (Ident.Set.inter (S.columns (pred env p)) agg_ids)
  | Aggs_within rvs ->
    let ids = scope_ids env (Rels rvs) in
    List.for_all (fun (_, a) -> Ident.Set.subset (Aggregate.columns a) ids) (snd (gb env))
  | Keyed_on (p, r) ->
    Ident.Set.subset
      (Ident.Set.inter (S.columns (pred env p)) (out_ids env r))
      (scope_ids env Keys)
  | Splittable p -> (
    match S.conjuncts (pred env p) with _ :: _ :: _ -> true | _ -> false)
  | Some_pushed parts ->
    List.exists
      (fun (e, s) -> not (S.equal (eval_pexp env (Ppart (e, s))) S.true_))
      parts
  | Keys_meet r -> keys_within env r <> []

(* An aggregate's value on a one-row group, where one exists without a
   CASE: SUM/MIN/MAX are their argument, COUNT-star is 1. *)
let degenerate_agg = function
  | Aggregate.Sum e | Aggregate.Min e | Aggregate.Max e -> e
  | Aggregate.CountStar -> S.int 1
  | Aggregate.Count _ | Aggregate.Avg _ -> raise Build_failed

(* The node of a new operator over built children: [op] makes its
   payload from the children's canonical reprs. *)
let op1 op (c : H.node) = H.make (op c.H.repr) [| c |]
let op2 op (a : H.node) (b : H.node) = H.make (op a.H.repr b.H.repr) [| a; b |]

let rec build env = function
  | Var r -> rel env r
  | Filter (e, t) ->
    let pred = eval_pexp env e in
    op1 (fun child -> L.Filter { pred; child }) (build env t)
  | Filter_nontrivial (e, t) ->
    let pred = eval_pexp env e in
    let child = build env t in
    if S.equal pred S.true_ then child else op1 (fun child -> L.Filter { pred; child }) child
  | Join (kind, e, a, b) ->
    let pred = eval_pexp env e in
    op2 (fun left right -> L.Join { kind; pred; left; right }) (build env a) (build env b)
  | Proj (d, t) ->
    let cols = eval_dexp env d in
    op1 (fun child -> L.Project { cols; child }) (build env t)
  | GroupBy (gk, t) ->
    let keys, aggs = gb env in
    let keys =
      match gk with
      | Gkeys -> keys
      | Gkeys_with r ->
        keys @ List.map (fun (c : Props.col_info) -> c.id) (schema_exn env (rel env r))
      | Gkeys_within r -> keys_within env r
    in
    op1 (fun child -> L.GroupBy { keys; aggs; child }) (build env t)
  | Degenerate t ->
    let keys, aggs = gb env in
    let cols =
      List.map (fun k -> (k, S.Col k)) keys
      @ List.map (fun (id, a) -> (id, degenerate_agg a)) aggs
    in
    op1 (fun child -> L.Project { cols; child }) (build env t)
  | Sort (s, t) ->
    let keys = List.assoc s env.sorts in
    op1 (fun child -> L.Sort { keys; child }) (build env t)
  | Distinct t -> op1 (fun c -> L.Distinct c) (build env t)
  | UnionAll (a, b) -> op2 (fun l r -> L.UnionAll (l, r)) (build env a) (build env b)
  | Union (a, b) -> op2 (fun l r -> L.Union (l, r)) (build env a) (build env b)
  | Intersect (a, b) -> op2 (fun l r -> L.Intersect (l, r)) (build env a) (build env b)
  | Except (a, b) -> op2 (fun l r -> L.Except (l, r)) (build env a) (build env b)
  | Keep_schema t ->
    op1 (Rule.identity_project (schema_exn env env.root)) (build env t)
  | Align t -> (
    match Rule.align env.cat ~reference:env.root (build env t) with
    | Ok n -> n
    | Error _ -> raise Build_failed)

(* One application of the rule at the root of [n]: matching, side
   checks, rhs construction. [None] when the rule does not fire. *)
let image cat r (n : H.node) =
  let env =
    { cat; root = n; rels = []; preds = []; defs = []; sorts = []; gb = None }
  in
  match match_lhs env r.lhs n with
  | exception No_match -> None
  | () -> (
    match List.for_all (check_side env) r.sides with
    | exception Build_failed -> None
    | false -> None
    | true -> ( match build env r.rhs with exception Build_failed -> None | n' -> Some n'))

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let rv_char r = Char.chr (65 + r)

let scope_to_string = function
  | Rels rvs -> String.concat "" (List.map (fun r -> String.make 1 (rv_char r)) rvs)
  | Keys -> "keys"

let rec pexp_to_string = function
  | Ptrue -> "true"
  | Pvar p -> Printf.sprintf "p%d" p
  | Pand (a, b) -> Printf.sprintf "(%s & %s)" (pexp_to_string a) (pexp_to_string b)
  | Ppart (e, s) -> Printf.sprintf "%s|%s" (pexp_to_string e) (scope_to_string s)
  | Presid (e, s) -> Printf.sprintf "%s\\%s" (pexp_to_string e) (scope_to_string s)
  | Pfirst p -> Printf.sprintf "first(p%d)" p
  | Prest p -> Printf.sprintf "rest(p%d)" p
  | Prename (e, a, b) -> Printf.sprintf "%s[%c->%c]" (pexp_to_string e) (rv_char a) (rv_char b)
  | Psubst (d, e) -> Printf.sprintf "%s[d%d]" (pexp_to_string e) d
  | Prow_eq (a, b) -> Printf.sprintf "rowEq(%c,%c)" (rv_char a) (rv_char b)

let dexp_to_string = function
  | Dvar d -> Printf.sprintf "d%d" d
  | Dcompose (a, b) -> Printf.sprintf "d%d.d%d" a b
  | Drename (a, b) -> Printf.sprintf "%c<-%c" (rv_char a) (rv_char b)

let kind_to_string = function
  | L.Inner -> "Join"
  | L.Cross -> "Cross"
  | L.LeftOuter -> "LOJ"
  | L.RightOuter -> "ROJ"
  | L.FullOuter -> "FOJ"
  | L.Semi -> "Semi"
  | L.AntiSemi -> "AntiSemi"

let rec term_to_string = function
  | Var r -> String.make 1 (rv_char r)
  | Filter (e, t) -> Printf.sprintf "Select[%s](%s)" (pexp_to_string e) (term_to_string t)
  | Filter_nontrivial (e, t) ->
    Printf.sprintf "Select?[%s](%s)" (pexp_to_string e) (term_to_string t)
  | Join (k, e, a, b) ->
    Printf.sprintf "%s[%s](%s, %s)" (kind_to_string k) (pexp_to_string e)
      (term_to_string a) (term_to_string b)
  | Proj (d, t) -> Printf.sprintf "Project[%s](%s)" (dexp_to_string d) (term_to_string t)
  | GroupBy (Gkeys, t) -> Printf.sprintf "GbAgg(%s)" (term_to_string t)
  | GroupBy (Gkeys_with r, t) ->
    Printf.sprintf "GbAgg[keys+%c](%s)" (rv_char r) (term_to_string t)
  | GroupBy (Gkeys_within r, t) ->
    Printf.sprintf "GbAgg[keys|%c](%s)" (rv_char r) (term_to_string t)
  | Degenerate t -> Printf.sprintf "Project[single-row aggs](%s)" (term_to_string t)
  | Sort (s, t) -> Printf.sprintf "Sort[s%d](%s)" s (term_to_string t)
  | Distinct t -> Printf.sprintf "Distinct(%s)" (term_to_string t)
  | UnionAll (a, b) -> Printf.sprintf "UnionAll(%s, %s)" (term_to_string a) (term_to_string b)
  | Union (a, b) -> Printf.sprintf "Union(%s, %s)" (term_to_string a) (term_to_string b)
  | Intersect (a, b) ->
    Printf.sprintf "Intersect(%s, %s)" (term_to_string a) (term_to_string b)
  | Except (a, b) -> Printf.sprintf "Except(%s, %s)" (term_to_string a) (term_to_string b)
  | Keep_schema t -> Printf.sprintf "Project[lhs-schema](%s)" (term_to_string t)
  | Align t -> Printf.sprintf "Align(%s)" (term_to_string t)

let side_to_string = function
  | Null_rejecting (p, rvs) ->
    Printf.sprintf "p%d null-rejecting on %s" p (scope_to_string (Rels rvs))
  | Key_within_equi (p, _, r) ->
    Printf.sprintf "equi-join columns of p%d cover a key of %c" p (rv_char r)
  | Trivial p -> Printf.sprintf "p%d = true" p
  | Identity_proj (d, r) -> Printf.sprintf "d%d is the identity projection of %c" d (rv_char r)
  | Scoped_within (p, rvs) ->
    Printf.sprintf "columns(p%d) within %s" p (scope_to_string (Rels rvs))
  | Has_key r -> Printf.sprintf "%c has a key" (rv_char r)
  | Key_within_keys r -> Printf.sprintf "%c has a key within the grouping keys" (rv_char r)
  | Agg_free p -> Printf.sprintf "p%d reads no aggregate" p
  | Aggs_within rvs ->
    Printf.sprintf "aggregates read only %s" (scope_to_string (Rels rvs))
  | Keyed_on (p, r) -> Printf.sprintf "p%d reads %c only through grouping keys" p (rv_char r)
  | Splittable p -> Printf.sprintf "p%d has >= 2 conjuncts" p
  | Some_pushed _ -> "some part is pushed"
  | Keys_meet r -> Printf.sprintf "some grouping key is a column of %c" (rv_char r)

let to_string r =
  Printf.sprintf "%s: %s -> %s%s" r.name (term_to_string r.lhs) (term_to_string r.rhs)
    (match r.sides with
    | [] -> ""
    | sides -> "  when " ^ String.concat "; " (List.map side_to_string sides))

let pp fmt r = Format.pp_print_string fmt (to_string r)

(* The content fingerprint digests the deterministic [to_string]
   rendering of the whole term (lhs, rhs, side conditions), so any edit to
   the rule's definition — not just its name or pattern — yields a new
   identity. *)
let fingerprint r =
  Digest.to_hex (Digest.string ("rdsl\x00" ^ to_string r))

let compile r =
  Rule.make ~fingerprint:(fingerprint r) r.name (pattern r) (fun cat n ->
      match image cat r n with Some n' -> [ n' ] | None -> [])

(* A machine-generated soundness note: which side-conditions carry the
   rule's soundness and which merely gate firing. *)
let soundness_note r =
  let semantic = List.filter (fun s -> not (firing_only s)) r.sides in
  let firing = List.filter firing_only r.sides in
  let part l = String.concat "; " (List.map side_to_string l) in
  match (semantic, firing) with
  | [], [] -> "unconditional"
  | [], f -> Printf.sprintf "unconditional (fires when %s)" (part f)
  | s, [] -> Printf.sprintf "requires %s" (part s)
  | s, f -> Printf.sprintf "requires %s (fires when %s)" (part s) (part f)

(* ------------------------------------------------------------------ *)
(* Mutations: systematically broken variants for rule-definition       *)
(* fuzzing. Each mutation is the kind of mistake a rule author makes:  *)
(* dropping a side-condition, forgetting a conjunct, pushing a whole   *)
(* predicate where only a scoped part is legal, dropping a rename or a *)
(* substitution.                                                       *)
(* ------------------------------------------------------------------ *)

let rec map_pexp f e =
  let e = f e in
  match e with
  | Ptrue | Pvar _ | Pfirst _ | Prest _ | Prow_eq _ -> e
  | Pand (a, b) -> Pand (map_pexp f a, map_pexp f b)
  | Ppart (a, s) -> Ppart (map_pexp f a, s)
  | Presid (a, s) -> Presid (map_pexp f a, s)
  | Prename (a, x, y) -> Prename (map_pexp f a, x, y)
  | Psubst (d, a) -> Psubst (d, map_pexp f a)

let rec map_term_pexp f = function
  | Var r -> Var r
  | Filter (e, t) -> Filter (f e, map_term_pexp f t)
  | Filter_nontrivial (e, t) -> Filter_nontrivial (f e, map_term_pexp f t)
  | Join (k, e, a, b) -> Join (k, f e, map_term_pexp f a, map_term_pexp f b)
  | Proj (d, t) -> Proj (d, map_term_pexp f t)
  | GroupBy (gk, t) -> GroupBy (gk, map_term_pexp f t)
  | Degenerate t -> Degenerate (map_term_pexp f t)
  | Sort (s, t) -> Sort (s, map_term_pexp f t)
  | Distinct t -> Distinct (map_term_pexp f t)
  | UnionAll (a, b) -> UnionAll (map_term_pexp f a, map_term_pexp f b)
  | Union (a, b) -> Union (map_term_pexp f a, map_term_pexp f b)
  | Intersect (a, b) -> Intersect (map_term_pexp f a, map_term_pexp f b)
  | Except (a, b) -> Except (map_term_pexp f a, map_term_pexp f b)
  | Keep_schema t -> Keep_schema (map_term_pexp f t)
  | Align t -> Align (map_term_pexp f t)

(* Apply [rewrite] at each rewritable pexp site of the rhs, one site per
   mutant. [rewrite] returns [Some e'] on sites it applies to. *)
let pexp_site_mutants tag rewrite r =
  let count = ref 0 in
  let total =
    let n = ref 0 in
    ignore
      (map_term_pexp
         (map_pexp (fun e ->
              (match rewrite e with Some _ -> incr n | None -> ());
              e))
         r.rhs);
    !n
  in
  List.init total (fun site ->
      count := 0;
      let rhs =
        map_term_pexp
          (map_pexp (fun e ->
               match rewrite e with
               | Some e' ->
                 let here = !count in
                 incr count;
                 if here = site then e' else e
               | None -> e))
          r.rhs
      in
      (Printf.sprintf "%s@%d" tag site, { r with name = r.name; rhs }))

let mutations r =
  let dropped_sides =
    List.filter_map
      (fun s ->
        if firing_only s then None
        else
          Some
            ( "drop-side:" ^ side_to_string s,
              { r with sides = List.filter (fun s' -> s' <> s) r.sides } ))
      r.sides
  in
  let rewrites =
    pexp_site_mutants "drop-conjunct"
      (function Pand (a, _) -> Some a | _ -> None)
      r
    @ pexp_site_mutants "widen-part" (function Ppart (e, _) -> Some e | _ -> None) r
    @ pexp_site_mutants "drop-residual"
        (function Presid _ -> Some Ptrue | _ -> None)
        r
    @ pexp_site_mutants "drop-rest" (function Prest _ -> Some Ptrue | _ -> None) r
    @ pexp_site_mutants "drop-rename" (function Prename (e, _, _) -> Some e | _ -> None) r
    @ pexp_site_mutants "drop-subst" (function Psubst (_, e) -> Some e | _ -> None) r
  in
  List.map (fun (tag, m) -> (tag, { m with name = r.name ^ "!" ^ tag })) (dropped_sides @ rewrites)

(* ------------------------------------------------------------------ *)
(* The bounded symbolic oracle                                         *)
(* ------------------------------------------------------------------ *)

module Verify = struct
  type counterexample = {
    instances : (string * string) list;  (** relation metavariable -> instance *)
    valuation : string list;  (** predicate atom assignments *)
    lhs_rows : string;
    rhs_rows : string;
  }

  type verdict = Sound_bounded | Refuted of counterexample | Unknown of string

  (* Symbolic rows. [Rmap] assigns each visible relation metavariable
     (keyed by its set-operation universe representative) a cell: a
     universe element, outer-join padding, or — past a GroupBy — the key
     class of the element. The pseudo relation [agg_rv] carries a group's
     aggregate values; an aggregate is modelled as a function of its
     group's row multiset, so the cell is that multiset (restricted to
     the relations the aggregates read). [Prj] is an (injectively
     modeled) projection application. *)
  type cell = Elem of int | Pad | Kcls of int | Aggs of row list
  and row = Rmap of (rv * cell) list (* sorted by rv *) | Prj of dv * row

  type parttag = Whole | First | Rest | Scoped of scope | Resid

  (* A predicate atom: the pvar's part, on a row restricted to what the
     pvar can see. *)
  type atom = pv * parttag * row

  exception Unknown_exn of string

  let unknown fmt = Printf.ksprintf (fun s -> raise (Unknown_exn s)) fmt

  (* ---- static analysis ---- *)

  let rec pexp_pvars = function
    | Ptrue | Prow_eq _ -> []
    | Pvar p | Pfirst p | Prest p -> [ p ]
    | Pand (a, b) -> pexp_pvars a @ pexp_pvars b
    | Ppart (e, _) | Presid (e, _) | Prename (e, _, _) | Psubst (_, e) -> pexp_pvars e

  let rec term_pexps = function
    | Var _ -> []
    | Filter (e, t) | Filter_nontrivial (e, t) -> e :: term_pexps t
    | Join (_, e, a, b) -> (e :: term_pexps a) @ term_pexps b
    | Proj (_, t) | GroupBy (_, t) | Degenerate t | Sort (_, t) | Distinct t
    | Keep_schema t | Align t ->
      term_pexps t
    | UnionAll (a, b) | Union (a, b) | Intersect (a, b) | Except (a, b) ->
      term_pexps a @ term_pexps b

  type analysis = {
    rule : rule;
    rvs : rv list;
    universe_of : rv -> int;  (* set-op connected rvars share a universe *)
    tags_of : pv -> parttag list;  (* the pvar's part decomposition *)
    binding : pv -> rv list;
        (* the rvars visible at the pvar's lhs binding site: the pvar is a
           function of (at most) their columns, so its atoms are keyed on
           the row restricted to them *)
    keyed : pv -> rv list;
        (* of those, the ones the pvar sees only through grouping keys *)
    null_rejecting : pv -> rv list;  (* [] when unconstrained *)
    trivial : pv -> bool;
    identity_dv : dv -> bool;
    key_constraints : (pv * rv) list;  (* at most one match on this rv's side *)
    dup_free : rv -> bool;
    gb_rvs : rv list option;  (* rvars under the lhs GroupBy binder *)
    agg_rvs : rv list;  (* rvars the aggregates read *)
    injective_keys : rv -> bool;  (* grouping is injective on this rv *)
    lhs_out : rv list;
    lhs_keyed : rv list;  (* lhs output rvars exposed only through keys *)
  }

  (* Relation pairs whose rows are compared positionally: every relation
     of both set-operation branches, and the two sides of a row equality.
     (A branch joining two relations then merges rows of one universe,
     which the evaluator reports as outside the fragment.) *)
  let rec setop_pairs = function
    | Var _ -> []
    | Filter (_, t) | Filter_nontrivial (_, t) | Proj (_, t) | GroupBy (_, t)
    | Degenerate t | Sort (_, t) | Distinct t | Keep_schema t | Align t ->
      setop_pairs t
    | Join (_, e, a, b) ->
      (match e with Prow_eq (x, y) -> [ (x, y) ] | _ -> []) @ setop_pairs a @ setop_pairs b
    | UnionAll (a, b) | Union (a, b) | Intersect (a, b) | Except (a, b) ->
      let rs = term_rvars a @ term_rvars b in
      List.map (fun r -> (List.hd rs, r)) rs @ setop_pairs a @ setop_pairs b

  (* The children of the term's [GroupBy Gkeys] binders, and whether it
     has any grouping construct at all. *)
  let rec gb_children = function
    | Var _ -> []
    | GroupBy (Gkeys, t) -> t :: gb_children t
    | Filter (_, t) | Filter_nontrivial (_, t) | Proj (_, t) | GroupBy (_, t)
    | Degenerate t | Sort (_, t) | Distinct t | Keep_schema t | Align t ->
      gb_children t
    | Join (_, _, a, b) | UnionAll (a, b) | Union (a, b) | Intersect (a, b)
    | Except (a, b) ->
      gb_children a @ gb_children b

  let rec has_grouping = function
    | Var _ -> false
    | GroupBy _ | Degenerate _ -> true
    | Filter (_, t) | Filter_nontrivial (_, t) | Proj (_, t) | Sort (_, t)
    | Distinct t | Keep_schema t | Align t ->
      has_grouping t
    | Join (_, _, a, b) | UnionAll (a, b) | Union (a, b) | Intersect (a, b)
    | Except (a, b) ->
      has_grouping a || has_grouping b

  (* Scopes each pvar is split against, anywhere in the rule. *)
  let pvar_scopes r =
    let table : (pv, scope list) Hashtbl.t = Hashtbl.create 8 in
    let first_rest : (pv, unit) Hashtbl.t = Hashtbl.create 8 in
    let add p s =
      let cur = Option.value ~default:[] (Hashtbl.find_opt table p) in
      if not (List.mem s cur) then Hashtbl.replace table p (s :: cur)
    in
    let rec walk = function
      | Ptrue | Pvar _ | Prow_eq _ -> ()
      | Pfirst p | Prest p -> Hashtbl.replace first_rest p ()
      | Pand (a, b) -> walk a; walk b
      | Ppart (e, s) | Presid (e, s) ->
        List.iter (fun p -> add p s) (pexp_pvars e);
        walk e
      | Prename (e, _, _) | Psubst (_, e) -> walk e
    in
    List.iter walk (term_pexps r.lhs @ term_pexps r.rhs);
    (table, first_rest)

  let analyze (r : rule) : analysis =
    let rvs = rvars r in
    if List.length rvs > 3 then unknown "more than 3 relation metavariables";
    (* set-op connected rvars share one universe *)
    let pairs = setop_pairs r.lhs @ setop_pairs r.rhs in
    let parent = Array.init (List.length rvs) Fun.id in
    let index rv =
      match List.find_index (Int.equal rv) rvs with
      | Some i -> i
      | None -> unknown "rhs uses an unbound relation metavariable"
    in
    let rec find i = if parent.(i) = i then i else find parent.(i) in
    List.iter (fun (a, b) -> parent.(find (index a)) <- find (index b)) pairs;
    let universe_of rv = if rv = agg_rv then rv else find (index rv) in
    (* Rows are keyed by universe representative, so set-op branches (and
       renamed predicates) are directly comparable; canonicalize every
       rvar set accordingly. *)
    let canon rvs = List.sort_uniq compare (List.map universe_of rvs) in
    let scopes, first_rest = pvar_scopes r in
    let scopes_disjoint a b =
      match (a, b) with
      | Rels x, Rels y -> not (List.exists (fun u -> List.mem u (canon y)) (canon x))
      | Keys, Keys -> false
      | Keys, Rels _ | Rels _, Keys -> false
    in
    let tags_of p =
      match (Hashtbl.find_opt scopes p, Hashtbl.mem first_rest p) with
      | Some _, true -> unknown "pvar p%d is both scope-split and conjunct-split" p
      | None, true -> [ First; Rest ]
      | None, false -> [ Whole ]
      | Some ss, false ->
        let rec check = function
          | [] -> ()
          | s :: rest ->
            if List.for_all (scopes_disjoint s) rest then check rest
            else unknown "pvar p%d split against overlapping scopes" p
        in
        check ss;
        List.map (fun s -> Scoped s) (List.sort compare ss) @ [ Resid ]
    in
    let gb_rvs =
      match (gb_children r.lhs, has_grouping r.lhs || has_grouping r.rhs) with
      | [], false -> None
      | [], true -> unknown "grouping without an lhs GroupBy binder"
      | [ child ], _ ->
        let under = canon (output_rvs child) in
        if List.mem agg_rv under then unknown "nested GroupBy binders";
        Some under
      | _ -> unknown "more than one GroupBy binder"
    in
    if gb_rvs = None && Hashtbl.fold (fun _ ss acc -> acc || List.mem Keys ss) scopes false
    then unknown "Keys scope without a GroupBy binder";
    (* The rvars a pvar can reference: the output rvars visible at its
       lhs binding site (those below a GroupBy only through its keys),
       further tightened by [Scoped_within] and [Agg_free] sides, widened
       to keys-only by [Keyed_on]. *)
    let bindings =
      let site p outs keyed acc = (p, (outs, keyed)) :: acc in
      let rec walk acc = function
        | Var _ -> acc
        | Filter (e, t) | Filter_nontrivial (e, t) ->
          let acc =
            match e with Pvar p -> site p (output_rvs t) (keyed_rvs t) acc | _ -> acc
          in
          walk acc t
        | Join (_, e, a, b) ->
          let acc =
            match e with
            | Pvar p ->
              site p (output_rvs a @ output_rvs b) (keyed_rvs a @ keyed_rvs b) acc
            | _ -> acc
          in
          walk (walk acc a) b
        | Proj (_, t) | GroupBy (_, t) | Degenerate t | Sort (_, t) | Distinct t
        | Keep_schema t | Align t ->
          walk acc t
        | UnionAll (a, b) | Union (a, b) | Intersect (a, b) | Except (a, b) ->
          walk (walk acc a) b
      in
      walk [] r.lhs
    in
    let binding p =
      let visible =
        match
          List.find_map
            (function Scoped_within (p', rvs) when p' = p -> Some rvs | _ -> None)
            r.sides
        with
        | Some rvs -> rvs
        | None -> (
          match List.assoc_opt p bindings with Some (outs, _) -> outs | None -> rvs)
      in
      let visible =
        if List.mem (Agg_free p) r.sides then List.filter (fun v -> v <> agg_rv) visible
        else visible
      in
      canon visible
    in
    let keyed p =
      canon
        ((match List.assoc_opt p bindings with Some (_, k) -> k | None -> [])
        @ List.filter_map (function Keyed_on (p', rv) when p' = p -> Some rv | _ -> None) r.sides)
    in
    let null_rejecting p =
      canon
        (List.concat_map
           (function Null_rejecting (p', rvs) when p' = p -> rvs | _ -> [])
           r.sides)
    in
    let trivial p = List.mem (Trivial p) r.sides in
    let identity_dv d =
      List.exists (function Identity_proj (d', _) -> d' = d | _ -> false) r.sides
    in
    let key_constraints =
      List.filter_map
        (function Key_within_equi (p, _, rr) -> Some (p, universe_of rr) | _ -> None)
        r.sides
    in
    let named f = canon (List.filter_map f r.sides) in
    let injective = named (function Key_within_keys rv -> Some rv | _ -> None) in
    let keyed_rels =
      injective @ named (function Has_key rv -> Some rv | _ -> None) @ List.map snd key_constraints
    in
    let injective_keys rv = List.mem (universe_of rv) injective in
    let dup_free rv = List.mem (universe_of rv) keyed_rels in
    let agg_rvs =
      match List.find_map (function Aggs_within rvs -> Some rvs | _ -> None) r.sides with
      | Some rvs -> canon rvs
      | None -> Option.value ~default:[] gb_rvs
    in
    { rule = r;
      rvs;
      universe_of;
      tags_of;
      binding;
      keyed;
      null_rejecting;
      trivial;
      identity_dv;
      key_constraints;
      dup_free;
      gb_rvs;
      agg_rvs;
      injective_keys;
      lhs_out = canon (output_rvs r.lhs);
      lhs_keyed = canon (keyed_rvs r.lhs) }

  (* ---- evaluation under a partial valuation ---- *)

  exception Need of atom

  type ctx = {
    a : analysis;
    inst : (rv * int list) list;  (* universe-element multiset per rvar *)
    g : rv -> int -> int;  (* key class of a universe element, per rvar *)
    valuation : (atom, bool) Hashtbl.t;
  }

  let atom_value ctx atom =
    match Hashtbl.find_opt ctx.valuation atom with
    | Some b -> b
    | None -> raise (Need atom)

  let rec restrict_row row rvs =
    match row with
    | Rmap cells -> Rmap (List.filter (fun (rv, _) -> List.mem rv rvs) cells)
    | Prj (d, r) -> Prj (d, restrict_row r rvs)

  (* The row with the cells of [rvs] reduced to their key classes. *)
  let rec keyed_row ctx rvs row =
    match row with
    | Rmap cells ->
      Rmap
        (List.map
           (fun (rv, c) ->
             match c with
             | Elem e when List.mem rv rvs -> (rv, Kcls (ctx.g rv e))
             | _ -> (rv, c))
           cells)
    | Prj (d, r) -> Prj (d, keyed_row ctx rvs r)

  (* The grouping key of a row under the lhs GroupBy binder's keys. *)
  let group_key ctx row =
    let gb = Option.value ~default:[] ctx.a.gb_rvs in
    keyed_row ctx gb (restrict_row row gb)

  let row_has_pad row rvs =
    match row with
    | Rmap cells -> List.exists (fun (rv, c) -> List.mem rv rvs && c = Pad) cells
    | _ -> false

  (* The value of pvar [p]'s parts selected by [sel] on [row]. *)
  let pvar_value ctx sel p row =
    if ctx.a.trivial p then true
    else
      let bound = ctx.a.binding p in
      let seen rvs = keyed_row ctx (ctx.a.keyed p) (restrict_row row rvs) in
      List.for_all
        (fun tag ->
          let key =
            match tag with
            | Scoped (Rels rvs) ->
              let rvs = List.map ctx.a.universe_of rvs in
              seen (List.filter (fun rv -> List.mem rv bound) rvs)
            | Scoped Keys -> group_key ctx row
            | Whole | First | Rest | Resid -> seen bound
          in
          atom_value ctx (p, tag, key))
        (List.filter sel (ctx.a.tags_of p))

  let rec eval_pexp_sym ctx sel row = function
    | Ptrue -> true
    | Pvar p ->
      (match ctx.a.null_rejecting p with
      | [] -> pvar_value ctx sel p row
      | rvs -> if row_has_pad row rvs then false else pvar_value ctx sel p row)
    | Pand (a, b) -> eval_pexp_sym ctx sel row a && eval_pexp_sym ctx sel row b
    | Ppart (e, s) ->
      eval_pexp_sym ctx (fun tag -> sel tag && tag = Scoped s) row e
    | Presid (e, s) ->
      eval_pexp_sym ctx (fun tag -> sel tag && tag <> Scoped s) row e
    | Pfirst p -> pvar_value ctx (fun tag -> sel tag && tag = First) p row
    | Prest p -> pvar_value ctx (fun tag -> sel tag && tag = Rest) p row
    | Prename (e, _, _) ->
      (* Both renamed rvars live in one set-op universe and rows are keyed
         by its representative, so the rename is the symbolic identity. *)
      eval_pexp_sym ctx sel row e
    | Psubst (d, e) ->
      let row' = if ctx.a.identity_dv d then row else Prj (d, row) in
      eval_pexp_sym ctx sel row' e
    | Prow_eq _ -> unknown "row equality outside a semi/anti-semi join"

  let all_tags _ = true

  let merge_rows a b =
    match (a, b) with
    | Rmap x, Rmap y ->
      let cells = List.sort compare (x @ y) in
      let rec dup = function
        | (a, _) :: ((b, _) :: _ as rest) -> a = b || dup rest
        | _ -> false
      in
      if dup cells then unknown "join of relation metavariables sharing a universe"
      else Rmap cells
    | _ -> unknown "join over non-relational rows"

  let pad_row ctx t =
    Rmap
      (List.map (fun rv -> (rv, Pad))
         (List.sort_uniq compare (List.map ctx.a.universe_of (output_rvs t))))

  (* One GroupBy output row: the key cells plus the aggregate cell over
     the members. *)
  let group_row ctx key members =
    match key with
    | Rmap cells ->
      let aggs = List.sort compare (List.map (fun m -> restrict_row m ctx.a.agg_rvs) members) in
      Rmap (List.sort compare ((agg_rv, Aggs aggs) :: cells))
    | Prj _ -> unknown "grouping over a projected row"

  let rec eval ctx (t : term) : row list =
    match t with
    | Var rv ->
      let u = ctx.a.universe_of rv in
      List.map (fun e -> Rmap [ (u, Elem e) ]) (List.assoc rv ctx.inst)
    | Filter (e, t') | Filter_nontrivial (e, t') ->
      List.filter (fun row -> eval_pexp_sym ctx all_tags row e) (eval ctx t')
    | Join (kind, Prow_eq _, lt, rt) -> (
      (* set-op rows of one universe: null-safe row equality is identity *)
      let lrows = eval ctx lt and rrows = eval ctx rt in
      match kind with
      | L.Semi -> List.filter (fun l -> List.mem l rrows) lrows
      | L.AntiSemi -> List.filter (fun l -> not (List.mem l rrows)) lrows
      | _ -> unknown "row equality outside a semi/anti-semi join")
    | Join (kind, e, lt, rt) -> (
      let lrows = eval ctx lt and rrows = eval ctx rt in
      let p l r = eval_pexp_sym ctx all_tags (merge_rows l r) e in
      match kind with
      | L.Inner ->
        List.concat_map
          (fun l -> List.filter_map (fun r -> if p l r then Some (merge_rows l r) else None) rrows)
          lrows
      | L.Cross ->
        (* the executor ignores a cross join's predicate slot *)
        List.concat_map (fun l -> List.map (merge_rows l) rrows) lrows
      | L.LeftOuter ->
        List.concat_map
          (fun l ->
            match List.filter (p l) rrows with
            | [] -> [ merge_rows l (pad_row ctx rt) ]
            | ms -> List.map (merge_rows l) ms)
          lrows
      | L.RightOuter ->
        List.concat_map
          (fun r ->
            match List.filter (fun l -> p l r) lrows with
            | [] -> [ merge_rows (pad_row ctx lt) r ]
            | ms -> List.map (fun l -> merge_rows l r) ms)
          rrows
      | L.FullOuter ->
        let inner =
          List.concat_map
            (fun l ->
              List.filter_map (fun r -> if p l r then Some (merge_rows l r) else None) rrows)
            lrows
        in
        let lpad =
          List.filter_map
            (fun l -> if List.exists (p l) rrows then None else Some (merge_rows l (pad_row ctx rt)))
            lrows
        in
        let rpad =
          List.filter_map
            (fun r ->
              if List.exists (fun l -> p l r) lrows then None
              else Some (merge_rows (pad_row ctx lt) r))
            rrows
        in
        inner @ lpad @ rpad
      | L.Semi -> List.filter (fun l -> List.exists (p l) rrows) lrows
      | L.AntiSemi -> List.filter (fun l -> not (List.exists (p l) rrows)) lrows)
    | Proj (d, t') ->
      let wrap =
        match d with
        | Dvar d -> fun row -> if ctx.a.identity_dv d then row else Prj (d, row)
        | Dcompose (outer, inner) ->
          fun row ->
            let row = if ctx.a.identity_dv inner then row else Prj (inner, row) in
            if ctx.a.identity_dv outer then row else Prj (outer, row)
        | Drename _ ->
          (* positional renames are column bookkeeping: rows are keyed by
             universe, not by column identity *)
          Fun.id
      in
      List.map wrap (eval ctx t')
    | GroupBy (gk, t') ->
      let gb = Option.value ~default:[] ctx.a.gb_rvs in
      let keyed, whole =
        match gk with
        | Gkeys -> (gb, [])
        | Gkeys_with r -> (gb, [ ctx.a.universe_of r ])
        | Gkeys_within r -> ([ ctx.a.universe_of r ], [])
      in
      let tagged =
        List.map (fun row -> (keyed_row ctx keyed (restrict_row row (keyed @ whole)), row)) (eval ctx t')
      in
      List.map
        (fun k -> group_row ctx k (List.filter_map (fun (k', r) -> if k = k' then Some r else None) tagged))
        (List.sort_uniq compare (List.map fst tagged))
    | Degenerate t' -> List.map (fun row -> group_row ctx (group_key ctx row) [ row ]) (eval ctx t')
    | Sort (_, t') -> eval ctx t'
    | Align t' ->
      (* column bookkeeping, as for [Drename]: rows are keyed by
         universe, not by column identity *)
      eval ctx t'
    | Distinct t' -> List.sort_uniq compare (eval ctx t')
    | UnionAll (a, b) ->
      (* branches share a universe and rows are keyed by its
         representative: concatenation needs no re-keying *)
      eval ctx a @ eval ctx b
    | Union (a, b) -> List.sort_uniq compare (eval ctx a @ eval ctx b)
    | Intersect (a, b) ->
      let rb = eval ctx b in
      List.sort_uniq compare (List.filter (fun r -> List.mem r rb) (eval ctx a))
    | Except (a, b) ->
      let rb = eval ctx b in
      List.sort_uniq compare (List.filter (fun r -> not (List.mem r rb)) (eval ctx a))
    | Keep_schema t' ->
      List.map
        (fun row ->
          match row with
          | Rmap cells ->
            keyed_row ctx ctx.a.lhs_keyed
              (Rmap (List.filter (fun (rv, _) -> List.mem rv ctx.a.lhs_out) cells))
          | _ -> unknown "schema restoration over a non-relational row")
        (eval ctx t')

  (* ---- key-constraint check over the assigned atoms ---- *)

  (* Excluded valuations: a [Key_within_equi (p, _, rr)] rule only fires
     when each left row matches at most one distinct [rr] row; valuations
     where some assigned atoms of [p] say otherwise are outside the
     rule's firing condition. *)
  let constraints_ok ctx =
    List.for_all
      (fun (p, rr) ->
        let trues = ref [] in
        Hashtbl.iter
          (fun (p', _, key) v ->
            if p' = p && v then
              match key with
              | Rmap cells -> (
                match List.assoc_opt rr cells with
                | Some (Elem e) ->
                  trues := (List.filter (fun (rv, _) -> rv <> rr) cells, e) :: !trues
                | _ -> ())
              | _ -> ())
          ctx.valuation;
        let rest_keys = List.sort_uniq compare (List.map fst !trues) in
        List.for_all
          (fun k ->
            List.length (List.sort_uniq compare (List.filter_map (fun (k', e) -> if k = k' then Some e else None) !trues)) <= 1)
          rest_keys)
      ctx.a.key_constraints

  (* ---- drivers ---- *)

  let rv_name rv = if rv = agg_rv then "agg" else String.make 1 (rv_char rv)

  let rec row_to_string = function
    | Rmap cells -> "(" ^ String.concat "," (List.map cell_to_string cells) ^ ")"
    | Prj (d, r) -> Printf.sprintf "d%d%s" d (row_to_string r)

  and cell_to_string (rv, c) =
    match c with
    | Elem e -> Printf.sprintf "%s%d" (rv_name rv) e
    | Pad -> Printf.sprintf "%s·null" (rv_name rv)
    | Kcls k -> Printf.sprintf "%s~g%d" (rv_name rv) k
    | Aggs ms -> Printf.sprintf "agg{%s}" (String.concat " " (List.map row_to_string ms))

  let rows_to_string rows =
    match List.sort compare rows with
    | [] -> "{}"
    | rows -> "{" ^ String.concat " " (List.map row_to_string rows) ^ "}"

  let tag_to_string = function
    | Whole -> ""
    | First -> ".first"
    | Rest -> ".rest"
    | Scoped s -> "|" ^ scope_to_string s
    | Resid -> ".resid"

  let atom_to_string ((p, tag, key) : atom) =
    Printf.sprintf "p%d%s%s" p (tag_to_string tag) (row_to_string key)

  let describe_counterexample ctx lhs rhs =
    let grouping =
      List.map
        (fun rv ->
          Printf.sprintf "keys(%s)=%s" (rv_name rv)
            (if ctx.g rv 1 = ctx.g rv 0 then "one class" else "injective"))
        (Option.value ~default:[] ctx.a.gb_rvs)
    in
    { instances =
        List.map
          (fun (rv, elems) ->
            ( rv_name rv,
              "{"
              ^ String.concat ","
                  (List.map (fun e -> Printf.sprintf "%s%d" (rv_name rv) e) elems)
              ^ "}" ))
          ctx.inst;
      valuation =
        grouping
        @ List.sort compare
            (Hashtbl.fold
               (fun atom v acc ->
                 Printf.sprintf "%s=%b" (atom_to_string atom) v :: acc)
               ctx.valuation []);
      lhs_rows = rows_to_string lhs;
      rhs_rows = rows_to_string rhs }

  exception Refuted_exn of counterexample

  let multiset_equal a b = List.sort compare a = List.sort compare b

  (* Universe-element multisets per rvar: empty, a singleton, a duplicated
     row, two distinct rows (the last two dropped to duplicate-free
     instances under a key constraint). *)
  let instances_for a rv =
    if a.dup_free rv then [ []; [ 0 ]; [ 0; 1 ] ] else [ []; [ 0 ]; [ 0; 0 ]; [ 0; 1 ] ]

  let distinct_cost inst =
    List.fold_left (fun acc (_, elems) -> acc + List.length (List.sort_uniq compare elems)) 0 inst

  (* Keep the small-scope search tractable on 3-relation rules: cap the
     total number of distinct symbolic rows across all metavariables. *)
  let max_total_distinct = 5

  let rec cartesian = function
    | [] -> [ [] ]
    | choices :: rest ->
      let tails = cartesian rest in
      List.concat_map (fun c -> List.map (fun t -> c :: t) tails) choices

  (* Key functions over a 2-element universe, per grouped rvar: injective
     or constant (injective only under a key-within-keys side). *)
  let key_functions a =
    cartesian
      (List.map
         (fun rv ->
           List.map (fun inj -> (rv, inj)) (if a.injective_keys rv then [ true ] else [ true; false ]))
         (Option.value ~default:[] a.gb_rvs))
    |> List.map (fun choice rv e ->
           if Option.value ~default:true (List.assoc_opt rv choice) then e else 0)

  let verify ?(max_valuations = 1 lsl 18) (r : rule) : verdict =
    match analyze r with
    | exception Unknown_exn m -> Unknown m
    | a -> (
      let budget = ref max_valuations in
      let check_combo inst g =
        let rec go (assigned : (atom * bool) list) =
          decr budget;
          if !budget < 0 then unknown "valuation budget exhausted";
          let ctx = { a; inst; g; valuation = Hashtbl.create 32 } in
          List.iter (fun (atom, v) -> Hashtbl.replace ctx.valuation atom v) assigned;
          match (eval ctx r.lhs, eval ctx r.rhs) with
          | exception Need atom ->
            go ((atom, true) :: assigned);
            go ((atom, false) :: assigned)
          | lhs, rhs ->
            if constraints_ok ctx && not (multiset_equal lhs rhs) then
              raise (Refuted_exn (describe_counterexample ctx lhs rhs))
        in
        go []
      in
      let instances =
        cartesian (List.map (fun rv -> List.map (fun i -> (rv, i)) (instances_for a rv)) a.rvs)
        |> List.filter (fun inst -> distinct_cost inst <= max_total_distinct)
      in
      try
        List.iter
          (fun inst -> List.iter (fun g -> check_combo inst g) (key_functions a))
          instances;
        Sound_bounded
      with
      | Refuted_exn cx -> Refuted cx
      | Unknown_exn m -> Unknown m)

  let verdict_to_string = function
    | Sound_bounded -> "sound (bounded)"
    | Refuted cx ->
      Printf.sprintf "REFUTED: instances %s; valuation %s; lhs %s vs rhs %s"
        (String.concat " "
           (List.map (fun (rv, i) -> Printf.sprintf "%s=%s" rv i) cx.instances))
        (String.concat "," cx.valuation)
        cx.lhs_rows cx.rhs_rows
    | Unknown m -> "unknown: " ^ m
end
