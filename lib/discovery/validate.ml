module T = Template
module L = Relalg.Logical
module S = Relalg.Scalar
module I = Relalg.Ident
module P = Relalg.Props
module A = Core.Arggen

type params = { seed : int; trials : int; min_instances : int; budget : int }

let default_params = { seed = 2009; trials = 6; min_instances = 2; budget = 1 }

type assignment = {
  rels : (int * L.t) list;
  preds : (int * S.t) list;
  joins : (int * S.t) list;
}

type refutation = {
  assignment : assignment;
  lhs_instance : L.t;
  rhs_instance : L.t;
  divergence : Triage.Divergence.t;
  instance_index : int;
}

type verdict = Survived of int | Refuted of refutation | Inconclusive of string

type result = {
  cand : T.candidate;
  name : string;
  verdict : verdict;
  checks : int;
}

(* ------------------------------------------------------------------ *)
(* Instantiation                                                       *)

let build asn cand =
  let pred_of = function
    | T.Pvar i -> List.assoc i asn.preds
    | T.Pand (i, j) -> S.And (List.assoc i asn.preds, List.assoc j asn.preds)
  in
  let rec inst = function
    | T.Rel i -> List.assoc i asn.rels
    | T.Filter (p, c) -> L.Filter { pred = pred_of p; child = inst c }
    | T.Join (v, a, b) ->
      L.Join
        { kind = L.Inner;
          pred = List.assoc v asn.joins;
          left = inst a;
          right = inst b }
    | T.Distinct c -> L.Distinct (inst c)
    | T.UnionAll (a, b) -> L.UnionAll (inst a, inst b)
    | T.Union (a, b) -> L.Union (inst a, inst b)
    | T.Intersect (a, b) -> L.Intersect (inst a, inst b)
    | T.Except (a, b) -> L.Except (inst a, inst b)
  in
  match (inst cand.T.lhs, inst cand.T.rhs) with
  | l, r -> Some (l, r)
  | exception Not_found -> None

(* Placeholder instance of a template side: relation variables filled
   in, every predicate [true_] — schemas are predicate-independent, so
   these carry the column scopes predicate assignment must respect. *)
let rec placeholder rels = function
  | T.Rel i -> List.assoc i rels
  | T.Filter (_, c) -> L.Filter { pred = S.true_; child = placeholder rels c }
  | T.Join (_, a, b) ->
    L.Join
      { kind = L.Inner;
        pred = S.true_;
        left = placeholder rels a;
        right = placeholder rels b }
  | T.Distinct c -> L.Distinct (placeholder rels c)
  | T.UnionAll (a, b) -> L.UnionAll (placeholder rels a, placeholder rels b)
  | T.Union (a, b) -> L.Union (placeholder rels a, placeholder rels b)
  | T.Intersect (a, b) -> L.Intersect (placeholder rels a, placeholder rels b)
  | T.Except (a, b) -> L.Except (placeholder rels a, placeholder rels b)

(* Every filter child (per predicate variable) and join operand pair
   (per join variable) a variable's instantiation must be scoped to,
   over both sides of the candidate. *)
let occurrences rels cand =
  let pred_occ : (int, L.t list) Hashtbl.t = Hashtbl.create 4 in
  let join_occ : (int, (L.t * L.t) list) Hashtbl.t = Hashtbl.create 4 in
  let add tbl k v =
    Hashtbl.replace tbl k (Hashtbl.find_opt tbl k |> Option.value ~default:[] |> fun l -> l @ [ v ])
  in
  let rec go = function
    | T.Rel _ -> ()
    | T.Filter (p, c) ->
      let child = placeholder rels c in
      (match p with
      | T.Pvar i -> add pred_occ i child
      | T.Pand (i, j) ->
        add pred_occ i child;
        add pred_occ j child);
      go c
    | T.Join (v, a, b) ->
      add join_occ v (placeholder rels a, placeholder rels b);
      go a;
      go b
    | T.Distinct c -> go c
    | T.UnionAll (a, b) | T.Union (a, b) | T.Intersect (a, b) | T.Except (a, b) ->
      go a;
      go b
  in
  go cand.T.lhs;
  go cand.T.rhs;
  (pred_occ, join_occ)

(* First (table, column) holding a duplicated value — the adversarial
   instance projects every relation variable onto it, so bag-vs-set
   confusions surface. Deterministic: tables and columns in catalog
   order. *)
let dup_column cat =
  List.find_map
    (fun tn ->
      let t = Storage.Catalog.find_exn cat tn in
      List.find_map
        (fun (c : Storage.Schema.column) ->
          let vs = Storage.Table.column_values t c.col_name in
          let seen = Hashtbl.create (Array.length vs) in
          let dup = ref false in
          Array.iter
            (fun v ->
              if Hashtbl.mem seen v then dup := true else Hashtbl.add seen v ())
            vs;
          if !dup then Some (tn, c.col_name) else None)
        t.Storage.Table.schema.columns)
    (Storage.Catalog.table_names cat)

let single_col tn cn =
  let alias = I.fresh_rel () in
  let id = I.make alias cn in
  L.Project { cols = [ (id, S.Col id) ]; child = L.Get { table = tn; alias } }

let scope_retries = 4

type mode = Adversarial | Adversarial_weak | Random

let mode_of_instance = function
  | 0 -> Adversarial
  | 1 -> Adversarial_weak
  | _ -> Random

let assign_rels (ctx : A.ctx) ~mode cand =
  let vars = List.sort_uniq compare (T.rel_vars cand.T.lhs @ T.rel_vars cand.T.rhs) in
  if mode <> Random then
    match dup_column ctx.cat with
    | Some (tn, cn) -> List.map (fun v -> (v, single_col tn cn)) vars
    | None ->
      List.map
        (fun v -> (v, L.Get { table = List.hd (Storage.Catalog.table_names ctx.cat); alias = I.fresh_rel () }))
        vars
  else if T.has_setop cand.T.lhs || T.has_setop cand.T.rhs then
    (* Set-operation branches must be union-compatible: one table for
       every relation variable, usually behind distinct filters so the
       branches' contents differ. *)
    let table = Storage.Prng.pick ctx.g (Storage.Catalog.table_names ctx.cat) in
    List.map
      (fun v ->
        let base = L.Get { table; alias = I.fresh_rel () } in
        let t =
          if Storage.Prng.chance ctx.g 0.85 then
            Option.value (A.add_filter ctx base) ~default:base
          else base
        in
        (v, t))
      vars
  else
    List.map
      (fun v ->
        let t = A.fresh_get ctx in
        let t =
          if Storage.Prng.chance ctx.g 0.35 then
            Option.value (A.add_filter ctx t) ~default:t
          else t
        in
        let t =
          if Storage.Prng.chance ctx.g 0.3 then
            Option.value (A.add_project ctx t) ~default:t
          else t
        in
        (v, t))
      vars

let assign_preds (ctx : A.ctx) cat ~mode pred_occ =
  let vars = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) pred_occ []) in
  let scoped p occ = I.Set.subset (S.columns p) (P.output_idents cat occ) in
  let rec assign acc = function
    | [] -> Some acc
    | v :: rest -> (
      let occs = Hashtbl.find pred_occ v in
      let smallest =
        List.fold_left
          (fun best occ ->
            let n = I.Set.cardinal (P.output_idents cat occ) in
            match best with
            | Some (_, bn) when bn <= n -> best
            | _ -> Some (occ, n))
          None occs
        |> Option.get |> fst
      in
      (* The weak adversarial instance filters nothing: a selective
         predicate can hide a bag-vs-set confusion by filtering the
         duplicated rows away, so here every predicate variable becomes
         a trivially-true column test and the duplicates flow through. *)
      let weak =
        match P.schema cat smallest with
        | Ok ((c : P.col_info) :: _) ->
          let p = S.IsNotNull (S.Col c.id) in
          if List.for_all (scoped p) occs then Some p else None
        | _ -> None
      in
      let rec try_draw k =
        if k >= scope_retries then None
        else
          match A.random_pred ctx smallest with
          | Some p when List.for_all (scoped p) occs -> Some p
          | _ -> try_draw (k + 1)
      in
      let drawn =
        match (mode, weak) with
        | Adversarial_weak, Some p -> Some p
        | _ -> try_draw 0
      in
      match drawn with
      | None -> None
      | Some p -> assign ((v, p) :: acc) rest)
  in
  assign [] vars

let assign_joins (ctx : A.ctx) cat join_occ =
  let vars = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) join_occ []) in
  let scoped p (l, r) =
    I.Set.subset (S.columns p)
      (I.Set.union (P.output_idents cat l) (P.output_idents cat r))
  in
  let rec assign acc = function
    | [] -> Some acc
    | v :: rest -> (
      let occs = Hashtbl.find join_occ v in
      let l0, r0 = List.hd occs in
      let rec try_draw k =
        if k >= scope_retries then None
        else
          match A.join_pred ctx ~left:l0 ~right:r0 with
          | Some p when List.for_all (scoped p) occs -> Some p
          | _ -> try_draw (k + 1)
      in
      match try_draw 0 with
      | None -> None
      | Some p -> assign ((v, p) :: acc) rest)
  in
  assign [] vars

let instantiate cat g ~mode cand =
  let ctx = { A.g; cat } in
  let rels = assign_rels ctx ~mode cand in
  let pred_occ, join_occ = occurrences rels cand in
  match assign_preds ctx cat ~mode pred_occ with
  | None -> None
  | Some preds -> (
    match assign_joins ctx cat join_occ with
    | None -> None
    | Some joins -> (
      let asn = { rels; preds; joins } in
      match build asn cand with
      | None -> None
      | Some (l, r) -> (
        match (P.validate cat l, P.validate cat r) with
        | Ok (), Ok () -> Some (asn, l, r)
        | _ -> None)))

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)

let run_one params cat ~index (name, cand) =
  (* Disjoint alias range and private PRNG substream per candidate, so
     the work a task does depends only on its index — never on which
     domain ran it or what ran before. *)
  I.set_fresh (10_000_000 + (index * 10_000));
  let g = Storage.Prng.create (params.seed + (index * 1009)) in
  let checks = ref 0 in
  let clean = ref 0 in
  let refut = ref None in
  let last_err = ref "no valid instantiation" in
  let inst = ref 0 in
  while !inst < params.trials && !refut = None do
    (match instantiate cat g ~mode:(mode_of_instance !inst) cand with
    | None -> ()
    | Some (asn, l, r) -> (
      incr checks;
      match Triage.Differential.check ~site:"discovery" ~budget:params.budget cat l r with
      | Error e -> last_err := e
      | Ok None -> incr clean
      | Ok (Some d) ->
        refut :=
          Some
            { assignment = asn;
              lhs_instance = l;
              rhs_instance = r;
              divergence = d;
              instance_index = !inst }));
    incr inst
  done;
  let verdict =
    match !refut with
    | Some r -> Refuted r
    | None ->
      if !clean >= params.min_instances then Survived !clean
      else
        Inconclusive
          (Printf.sprintf "%d/%d clean instances (last obstacle: %s)" !clean
             params.min_instances !last_err)
  in
  { cand; name; verdict; checks = !checks }

let run ?(pool = Par.Pool.sequential) params cat named =
  let arr = Array.of_list named in
  Array.to_list
    (Par.Pool.init pool (Array.length arr) (fun i ->
         run_one params cat ~index:i arr.(i)))

(* ------------------------------------------------------------------ *)
(* Counterexample minimization                                         *)

type minimized = {
  refutation : refutation;
  nodes_before : int;
  nodes_after : int;
  steps : int;
  min_checks : int;
}

let replace k v l = List.map (fun (k', v') -> if k = k' then (k, v) else (k', v')) l

let minimize ?(max_checks = 48) params cat cand (r : refutation) =
  let checks = ref 0 in
  let steps = ref 0 in
  let diverging asn =
    if !checks >= max_checks then None
    else (
      incr checks;
      match build asn cand with
      | None -> None
      | Some (l, rr) -> (
        match
          Triage.Differential.check ~site:"discovery" ~budget:params.budget cat
            l rr
        with
        | Ok (Some d) -> Some (asn, l, rr, d)
        | _ -> None))
  in
  let scalar_moves p =
    (if S.equal p S.true_ then [] else [ S.true_ ])
    @ match S.conjuncts p with [] | [ _ ] -> [] | cs -> cs
  in
  let moves asn =
    List.concat_map
      (fun (i, t) ->
        List.map (fun t' -> { asn with rels = replace i t' asn.rels })
          (Triage.Reduce.candidates t))
      asn.rels
    @ List.concat_map
        (fun (i, p) ->
          List.map (fun p' -> { asn with preds = replace i p' asn.preds })
            (scalar_moves p))
        asn.preds
    @ List.concat_map
        (fun (i, p) ->
          List.map (fun p' -> { asn with joins = replace i p' asn.joins })
            (scalar_moves p))
        asn.joins
  in
  let current = ref (r.assignment, r.lhs_instance, r.rhs_instance, r.divergence) in
  let progress = ref true in
  while !progress && !checks < max_checks do
    progress := false;
    let asn, _, _, _ = !current in
    match List.find_map diverging (moves asn) with
    | Some next ->
      current := next;
      incr steps;
      progress := true
    | None -> ()
  done;
  let asn, l, rr, d = !current in
  { refutation =
      { r with assignment = asn; lhs_instance = l; rhs_instance = rr; divergence = d };
    nodes_before = L.size r.lhs_instance + L.size r.rhs_instance;
    nodes_after = L.size l + L.size rr;
    steps = !steps;
    min_checks = !checks }
