module L = Relalg.Logical
module S = Relalg.Scalar
module I = Relalg.Ident
module H = Relalg.Hashcons

type pred = Pvar of int | Pand of int * int

type node =
  | Rel of int
  | Filter of pred * node
  | Join of int * node * node
  | Distinct of node
  | UnionAll of node * node
  | Union of node * node
  | Intersect of node * node
  | Except of node * node

type candidate = { lhs : node; rhs : node }
type alphabet = Basic | Setops | Full

let alphabet_of_string = function
  | "basic" -> Ok Basic
  | "setops" -> Ok Setops
  | "full" -> Ok Full
  | s -> Error (Printf.sprintf "unknown alphabet %S (basic|setops|full)" s)

let alphabet_name = function Basic -> "basic" | Setops -> "setops" | Full -> "full"

let rec ops = function
  | Rel _ -> 0
  | Filter (_, c) | Distinct c -> 1 + ops c
  | Join (_, a, b) | UnionAll (a, b) | Union (a, b) | Intersect (a, b)
  | Except (a, b) ->
    1 + ops a + ops b

let equal (a : candidate) (b : candidate) = a = b

(* Variables referenced by a side, as a sorted tagged list: predicate
   variables ('p'), join variables ('j'). Relation variables are excluded
   on purpose — orientation cares about which side *invents* predicates,
   and both sides of an enumerated pair share one relation-variable set. *)
let vset n =
  let rec go acc = function
    | Rel _ -> acc
    | Filter (Pvar i, c) -> go (('p', i) :: acc) c
    | Filter (Pand (i, j), c) -> go (('p', i) :: ('p', j) :: acc) c
    | Join (v, a, b) -> go (go (('j', v) :: acc) a) b
    | Distinct c -> go acc c
    | UnionAll (a, b) | Union (a, b) | Intersect (a, b) | Except (a, b) ->
      go (go acc a) b
  in
  List.sort_uniq compare (go [] n)

let subset a b = List.for_all (fun x -> List.mem x b) a

(* Renumber every variable class by first occurrence over the
   lhs-then-rhs preorder walk. Constructor arguments are evaluated
   right-to-left in OCaml, so the traversal order is made explicit with
   [let] bindings — first-occurrence numbering must follow the walk. *)
let canon_pair (l, r) =
  let rels = ref [] and preds = ref [] and joins = ref [] in
  let map tbl v =
    match List.assoc_opt v !tbl with
    | Some i -> i
    | None ->
      let i = List.length !tbl in
      tbl := !tbl @ [ (v, i) ];
      i
  in
  let map_pred = function
    | Pvar i -> Pvar (map preds i)
    | Pand (i, j) ->
      let i' = map preds i in
      let j' = map preds j in
      if i' <= j' then Pand (i', j') else Pand (j', i')
  in
  let rec go = function
    | Rel i -> Rel (map rels i)
    | Filter (p, c) ->
      let p' = map_pred p in
      let c' = go c in
      Filter (p', c')
    | Join (v, a, b) ->
      let v' = map joins v in
      let a' = go a in
      let b' = go b in
      Join (v', a', b')
    | Distinct c -> Distinct (go c)
    | UnionAll (a, b) ->
      let a' = go a in
      let b' = go b in
      UnionAll (a', b')
    | Union (a, b) ->
      let a' = go a in
      let b' = go b in
      Union (a', b')
    | Intersect (a, b) ->
      let a' = go a in
      let b' = go b in
      Intersect (a', b')
    | Except (a, b) ->
      let a' = go a in
      let b' = go b in
      Except (a', b')
  in
  let l' = go l in
  let r' = go r in
  (l', r')

let standardize { lhs; rhs } =
  let vl = vset lhs and vr = vset rhs in
  let strict_sup a b = subset b a && not (subset a b) in
  let oriented =
    if strict_sup vl vr then (lhs, rhs)
    else if strict_sup vr vl then (rhs, lhs)
    else if ops lhs > ops rhs then (lhs, rhs)
    else if ops rhs > ops lhs then (rhs, lhs)
    else
      let a = canon_pair (lhs, rhs) and b = canon_pair (rhs, lhs) in
      if compare a b <= 0 then (lhs, rhs) else (rhs, lhs)
  in
  let l, r = canon_pair oriented in
  { lhs = l; rhs = r }

(* Encoding into the Logical algebra, so dedup goes through the existing
   hashcons layer: metavariables become placeholder tables/columns.
   Injective on templates by construction. *)
let pcol i = S.Col (I.make ("p" ^ string_of_int i) "v")

let encode_pred = function
  | Pvar i -> pcol i
  | Pand (i, j) -> S.And (pcol i, pcol j)

let rec encode = function
  | Rel i -> L.Get { table = "T"; alias = "m" ^ string_of_int i }
  | Filter (p, c) -> L.Filter { pred = encode_pred p; child = encode c }
  | Join (v, a, b) ->
    L.Join
      { kind = L.Inner;
        pred = S.Col (I.make ("j" ^ string_of_int v) "v");
        left = encode a;
        right = encode b }
  | Distinct c -> L.Distinct (encode c)
  | UnionAll (a, b) -> L.UnionAll (encode a, encode b)
  | Union (a, b) -> L.Union (encode a, encode b)
  | Intersect (a, b) -> L.Intersect (encode a, encode b)
  | Except (a, b) -> L.Except (encode a, encode b)

let normal_ids c =
  let c = standardize c in
  (H.id (H.intern (encode c.lhs)), H.id (H.intern (encode c.rhs)))

let pred_str = function
  | Pvar i -> Printf.sprintf "p%d" i
  | Pand (i, j) -> Printf.sprintf "p%d&p%d" i j

let rec node_str = function
  | Rel i -> Printf.sprintf "R%d" i
  | Filter (p, c) -> Printf.sprintf "F[%s](%s)" (pred_str p) (node_str c)
  | Join (v, a, b) -> Printf.sprintf "J[j%d](%s,%s)" v (node_str a) (node_str b)
  | Distinct c -> Printf.sprintf "D(%s)" (node_str c)
  | UnionAll (a, b) -> Printf.sprintf "UA(%s,%s)" (node_str a) (node_str b)
  | Union (a, b) -> Printf.sprintf "U(%s,%s)" (node_str a) (node_str b)
  | Intersect (a, b) -> Printf.sprintf "I(%s,%s)" (node_str a) (node_str b)
  | Except (a, b) -> Printf.sprintf "E(%s,%s)" (node_str a) (node_str b)

let display c = node_str c.lhs ^ " -> " ^ node_str c.rhs

let name_of c =
  let s = display (standardize c) in
  (* Two independently seeded string hashes, mixed: [Hashtbl.hash] alone
     is 30 bits, too narrow for collision-free names over large
     enumerations. Deterministic across processes (both hashes are). *)
  let h = S.hash_combine (Hashtbl.hash s) (Hashtbl.seeded_hash 7 s) in
  Printf.sprintf "Disc%08x" (h land 0xffffffff)

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)

let filter_preds = [ Pvar 0; Pvar 1; Pand (0, 1) ]

let binaries_of = function
  | Basic -> []
  | Setops -> [ (fun a b -> UnionAll (a, b)); (fun a b -> Union (a, b)) ]
  | Full ->
    [ (fun a b -> UnionAll (a, b));
      (fun a b -> Union (a, b));
      (fun a b -> Intersect (a, b));
      (fun a b -> Except (a, b)) ]

(* All trees using exactly the relation variables [rels] (once each), with
   at most [budget] operators. Every tree is produced exactly once: a tree
   is its top constructor over smaller trees. *)
let rec gen alpha rels budget =
  let out = ref [] in
  (match rels with [ r ] -> out := [ Rel r ] | _ -> ());
  if budget >= 1 then begin
    let subs = gen alpha rels (budget - 1) in
    List.iter
      (fun t ->
        List.iter (fun p -> out := Filter (p, t) :: !out) filter_preds;
        out := Distinct t :: !out)
      subs;
    (match rels with
    | [ r0; r1 ] ->
      let parts = [ ([ r0 ], [ r1 ]); ([ r1 ], [ r0 ]) ] in
      List.iter
        (fun (lr, rr) ->
          let ls = gen alpha lr (budget - 1) and rs = gen alpha rr (budget - 1) in
          List.iter
            (fun l ->
              List.iter
                (fun r ->
                  if ops l + ops r <= budget - 1 then begin
                    out := Join (0, l, r) :: !out;
                    List.iter (fun mk -> out := mk l r :: !out) (binaries_of alpha)
                  end)
                rs)
            ls)
        parts
    | _ -> ())
  end;
  List.rev !out

(* Symbolic output signature: which relation variables feed the visible
   columns. Set operations export their left branch's columns. *)
let rec out_vars = function
  | Rel i -> [ i ]
  | Filter (_, c) | Distinct c -> out_vars c
  | Join (_, a, b) -> List.sort_uniq compare (out_vars a @ out_vars b)
  | UnionAll (a, _) | Union (a, _) | Intersect (a, _) | Except (a, _) ->
    out_vars a

let rec has_setop = function
  | Rel _ -> false
  | Filter (_, c) | Distinct c -> has_setop c
  | Join (_, a, b) -> has_setop a || has_setop b
  | UnionAll _ | Union _ | Intersect _ | Except _ -> true

let rel_vars n =
  let rec go acc = function
    | Rel i -> i :: acc
    | Filter (_, c) | Distinct c -> go acc c
    | Join (_, a, b) | UnionAll (a, b) | Union (a, b) | Intersect (a, b)
    | Except (a, b) ->
      go (go acc a) b
  in
  List.sort_uniq compare (go [] n)

(* A pair is worth validating when (a) the sides differ, (b) one side's
   predicate/join-variable set contains the other's (otherwise one side
   references predicates the other cannot supply — the bridged rule could
   never instantiate them), and (c) the outputs are statically
   compatible: same relation variables feeding the columns, or — for
   set-operation candidates, which are instantiated over one table so
   all branches share a width — the same column-source count. *)
let viable l r =
  l <> r
  && (let vl = vset l and vr = vset r in
      subset vl vr || subset vr vl)
  &&
  let ol = out_vars l and or_ = out_vars r in
  ol = or_ || ((has_setop l || has_setop r) && List.length ol = List.length or_)

let rel_sets = [ [ 0 ]; [ 0; 1 ] ]

let in_alphabet alpha n =
  let rec bad = function
    | Rel _ -> false
    | Filter (_, c) | Distinct c -> bad c
    | Join (_, a, b) -> bad a || bad b
    | UnionAll (a, b) | Union (a, b) -> alpha = Basic || bad a || bad b
    | Intersect (a, b) | Except (a, b) -> alpha <> Full || bad a || bad b
  in
  not (bad n)

let mk l r = standardize { lhs = l; rhs = r }

let known_sound =
  List.map
    (fun (n, c) -> (n, standardize c))
    [ ("SelectMerge",
       { lhs = Filter (Pvar 0, Filter (Pvar 1, Rel 0));
         rhs = Filter (Pand (0, 1), Rel 0) });
      ("SelectCommute",
       { lhs = Filter (Pvar 0, Filter (Pvar 1, Rel 0));
         rhs = Filter (Pvar 1, Filter (Pvar 0, Rel 0)) });
      ("JoinCommute",
       { lhs = Join (0, Rel 0, Rel 1); rhs = Join (0, Rel 1, Rel 0) });
      ("DistinctIdempotent",
       { lhs = Distinct (Distinct (Rel 0)); rhs = Distinct (Rel 0) });
      ("SelectBelowDistinct",
       { lhs = Filter (Pvar 0, Distinct (Rel 0));
         rhs = Distinct (Filter (Pvar 0, Rel 0)) });
      ("UnionAllCommute",
       { lhs = UnionAll (Rel 0, Rel 1); rhs = UnionAll (Rel 1, Rel 0) });
      ("UnionCommute", { lhs = Union (Rel 0, Rel 1); rhs = Union (Rel 1, Rel 0) });
      ("DistinctUnionAllToUnion",
       { lhs = Distinct (UnionAll (Rel 0, Rel 1)); rhs = Union (Rel 0, Rel 1) });
      ("DistinctUnionToUnion",
       { lhs = Distinct (Union (Rel 0, Rel 1)); rhs = Union (Rel 0, Rel 1) });
      ("IntersectCommute",
       { lhs = Intersect (Rel 0, Rel 1); rhs = Intersect (Rel 1, Rel 0) }) ]

let seeded_unsound =
  List.map
    (fun (n, c) -> (n, standardize c))
    [ ("DropFilter", { lhs = Filter (Pvar 0, Rel 0); rhs = Rel 0 });
      ("BuggySelectMerge",
       { lhs = Filter (Pvar 0, Filter (Pvar 1, Rel 0));
         rhs = Filter (Pvar 0, Rel 0) });
      ("DropDistinct", { lhs = Distinct (Rel 0); rhs = Rel 0 });
      ("UnionAllAsUnion",
       { lhs = UnionAll (Rel 0, Rel 1); rhs = Union (Rel 0, Rel 1) }) ]

let lookup table c =
  let c = standardize c in
  List.find_map (fun (n, k) -> if equal k c then Some n else None) table

let rediscovered_name c = lookup known_sound c
let seeded_name c = lookup seeded_unsound c

let enumerate_counted ?(pool = Par.Pool.sequential) alpha ~max_nodes =
  let pairs =
    List.concat_map
      (fun rels ->
        let sides = Array.of_list (gen alpha rels max_nodes) in
        (* Fan the quadratic filter+standardize pass out over the pool;
           the merge is in task order, so the result is pool-independent. *)
        let per_lhs =
          Par.Pool.map_array pool
            (fun l ->
              Array.to_list sides
              |> List.filter_map (fun r ->
                     if viable l r then Some (mk l r) else None))
            sides
        in
        List.concat (Array.to_list per_lhs))
      rel_sets
  in
  let seeded =
    List.filter_map
      (fun (_, c) -> if in_alphabet alpha c.lhs && in_alphabet alpha c.rhs then Some c else None)
      seeded_unsound
  in
  (* Dedup through the hashcons layer: one interned id per side of the
     standardized pair. First occurrence wins, order is enumeration
     order, so the output is deterministic. *)
  let seen = Hashtbl.create 256 in
  let out = ref [] in
  List.iter
    (fun c ->
      let key = normal_ids c in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        out := c :: !out
      end)
    (pairs @ seeded);
  (List.rev !out, List.length pairs + List.length seeded)

let enumerate ?pool alpha ~max_nodes =
  fst (enumerate_counted ?pool alpha ~max_nodes)

(* ------------------------------------------------------------------ *)
(* Bridge to optimizer rules                                           *)

let rec to_pattern_node = function
  | Rel _ -> Dsl.Pattern.Any
  | Filter (_, c) -> Dsl.Pattern.Op (L.KFilter, [ to_pattern_node c ])
  | Join (_, a, b) ->
    Dsl.Pattern.Op (L.KJoin L.Inner, [ to_pattern_node a; to_pattern_node b ])
  | Distinct c -> Dsl.Pattern.Op (L.KDistinct, [ to_pattern_node c ])
  | UnionAll (a, b) ->
    Dsl.Pattern.Op (L.KUnionAll, [ to_pattern_node a; to_pattern_node b ])
  | Union (a, b) ->
    Dsl.Pattern.Op (L.KUnion, [ to_pattern_node a; to_pattern_node b ])
  | Intersect (a, b) ->
    Dsl.Pattern.Op (L.KIntersect, [ to_pattern_node a; to_pattern_node b ])
  | Except (a, b) ->
    Dsl.Pattern.Op (L.KExcept, [ to_pattern_node a; to_pattern_node b ])

let to_pattern c = to_pattern_node (standardize c).lhs

(* Wrap [built] so its output schema matches the tree the rule fired on
   — the same alignment the differential oracle applies, so a validated
   candidate is promotable by construction. *)
let align cat matched built =
  match Triage.Differential.align cat ~reference:matched built with
  | Ok t -> [ t ]
  | Error _ -> []

(* Bridge into the rewrite DSL, for the symbolic oracle. Join-predicate
   variables land in a predicate-variable namespace disjoint from the
   filter predicates'. *)
let join_pv v = 1000 + v

let to_rdsl ?name c =
  let c = standardize c in
  let module R = Dsl.Rdsl in
  let pexp = function
    | Pvar i -> R.Pvar i
    | Pand (i, j) -> R.Pand (R.Pvar i, R.Pvar j)
  in
  let rec go = function
    | Rel i -> R.Var i
    | Filter (p, ct) -> R.Filter (pexp p, go ct)
    | Join (v, a, b) -> R.Join (L.Inner, R.Pvar (join_pv v), go a, go b)
    | Distinct ct -> R.Distinct (go ct)
    | UnionAll (a, b) -> R.UnionAll (go a, go b)
    | Union (a, b) -> R.Union (go a, go b)
    | Intersect (a, b) -> R.Intersect (go a, go b)
    | Except (a, b) -> R.Except (go a, go b)
  in
  let name = match name with Some n -> n | None -> name_of c in
  { R.name; lhs = go c.lhs; rhs = go c.rhs; sides = [] }

let to_rule ?name c =
  let c = standardize c in
  let name = match name with Some n -> n | None -> name_of c in
  let pattern = to_pattern c in
  let apply cat tree =
    let rels : (int, L.t) Hashtbl.t = Hashtbl.create 4 in
    let preds : (int, S.t) Hashtbl.t = Hashtbl.create 4 in
    let joins : (int, S.t) Hashtbl.t = Hashtbl.create 4 in
    let bind tbl eq k v =
      match Hashtbl.find_opt tbl k with
      | Some v' -> eq v v'
      | None ->
        Hashtbl.add tbl k v;
        true
    in
    let rec mtch t q =
      match (t, q) with
      | Rel i, _ -> bind rels L.equal i q
      | Filter (Pvar i, ct), L.Filter { pred; child } ->
        bind preds S.equal i pred && mtch ct child
      | Filter (Pand (i, j), ct), L.Filter { pred; child } -> (
        match S.conjuncts pred with
        | a :: (_ :: _ as rest) ->
          bind preds S.equal i a
          && bind preds S.equal j (S.conj rest)
          && mtch ct child
        | _ -> false)
      | Join (v, lt, rt), L.Join { kind = L.Inner; pred; left; right } ->
        bind joins S.equal v pred && mtch lt left && mtch rt right
      | Distinct ct, L.Distinct cq -> mtch ct cq
      | UnionAll (a, b), L.UnionAll (x, y) -> mtch a x && mtch b y
      | Union (a, b), L.Union (x, y) -> mtch a x && mtch b y
      | Intersect (a, b), L.Intersect (x, y) -> mtch a x && mtch b y
      | Except (a, b), L.Except (x, y) -> mtch a x && mtch b y
      | _ -> false
    in
    if not (mtch c.lhs tree) then []
    else
      let pred_of = function
        | Pvar i -> Hashtbl.find preds i
        | Pand (i, j) -> S.And (Hashtbl.find preds i, Hashtbl.find preds j)
      in
      let rec build = function
        | Rel i -> Hashtbl.find rels i
        | Filter (p, ct) -> L.Filter { pred = pred_of p; child = build ct }
        | Join (v, a, b) ->
          L.Join
            { kind = L.Inner;
              pred = Hashtbl.find joins v;
              left = build a;
              right = build b }
        | Distinct ct -> L.Distinct (build ct)
        | UnionAll (a, b) -> L.UnionAll (build a, build b)
        | Union (a, b) -> L.Union (build a, build b)
        | Intersect (a, b) -> L.Intersect (build a, build b)
        | Except (a, b) -> L.Except (build a, build b)
      in
      match build c.rhs with
      | exception Not_found -> []
      | built -> align cat tree built
  in
  let fingerprint =
    Digest.to_hex (Digest.string ("template\x00" ^ name ^ "\x00" ^ display c))
  in
  Optimizer.Rule.make ~fingerprint name pattern apply
