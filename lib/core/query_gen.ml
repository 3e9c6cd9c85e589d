open Storage
open Relalg
module L = Logical
module P = Dsl.Pattern

type generated = { query : L.t; trials : int }

(* Generic placeholders usually become scans (as in the paper: "we can
   instantiate each of the generic operators with Get operators");
   occasionally a filtered scan for variety. *)
let any_subtree (ctx : Arggen.ctx) : L.t option =
  let get = Arggen.fresh_get ctx in
  if Prng.chance ctx.g 0.2 then
    match Arggen.add_filter ctx get with Some t -> Some t | None -> Some get
  else Some get

let rec instantiate ctx (p : P.t) : L.t option =
  match p with
  | P.Any -> any_subtree ctx
  | P.Op (kind, kid_patterns) -> (
    let ( let* ) = Option.bind in
    match (kind, kid_patterns) with
    | L.KGet, [] -> Some (Arggen.fresh_get ctx)
    | L.KFilter, [ kp ] ->
      let* c = instantiate ctx kp in
      Arggen.add_filter ctx c
    | L.KProject, [ kp ] ->
      let* c = instantiate ctx kp in
      Arggen.add_project ctx c
    | L.KJoin jk, [ lp; rp ] ->
      let* l = instantiate ctx lp in
      let* r = instantiate ctx rp in
      Arggen.add_join ctx jk l r
    | L.KGroupBy, [ kp ] ->
      let* c = instantiate ctx kp in
      Arggen.add_groupby ctx c
    | (L.KUnionAll | L.KUnion | L.KIntersect | L.KExcept), [ lp; rp ] ->
      (* Two generic branches: clone for guaranteed union compatibility.
         Structured branches: instantiate independently and align. *)
      let* l = instantiate ctx lp in
      let* r =
        match rp with
        | P.Any when Prng.chance ctx.g 0.8 -> Some (Arggen.refresh_labels l)
        | _ -> instantiate ctx rp
      in
      Arggen.add_setop ctx kind l r
    | L.KDistinct, [ kp ] ->
      let* c = instantiate ctx kp in
      Some (L.Distinct c)
    | L.KSort, [ kp ] ->
      let* c = instantiate ctx kp in
      Arggen.add_sort ctx c
    | L.KLimit, [ kp ] ->
      let* c = instantiate ctx kp in
      Some (L.Limit { count = 1 + Prng.int ctx.g 20; child = c })
    | _ -> None)

let compose p1 p2 =
  let substitutions base other =
    List.filter_map
      (fun i -> P.substitute_leaf base i other)
      (List.init (P.leaves base) Fun.id)
  in
  let roots =
    [ P.Op (L.KJoin L.Inner, [ p1; p2 ]);
      P.Op (L.KUnionAll, [ p1; p2 ]) ]
  in
  let candidates = substitutions p1 p2 @ substitutions p2 p1 @ roots in
  List.stable_sort (fun a b -> compare (P.size a) (P.size b)) candidates

(* Acceptance by [RuleSet(q)]: pad the candidate, then keep it when
   every target rule fired. *)
let finish fw ~extra_ops ~targets ctx ~trials query =
  let query = if extra_ops > 0 then Arggen.pad ctx query extra_ops else query in
  match Framework.ruleset fw query with
  | Ok rs when List.for_all (fun r -> Framework.SSet.mem r rs) targets ->
    Some { query; trials }
  | _ -> None

(* The one trial loop behind every method. Attempt [trials] (counted
   from 0) asks [draw] for one candidate — [None] when argument
   selection fails — and [accept] turns it into the result or rejects
   it; the loop stops at the first result or after [max_trials]
   attempts. Per-(method, target) telemetry: trials consumed,
   generation failures (trial budget exhausted), instantiation failures
   and wall time. *)
let search ~meth ~target ~max_trials ~draw ~accept fw g =
  let metric name = "qgen." ^ meth ^ "." ^ name in
  let trials_c = Obs.Metrics.counter ~label:target (metric "trials") in
  let not_found_c = Obs.Metrics.counter ~label:target (metric "not_found") in
  let inst_fail_c =
    Obs.Metrics.counter ~label:target (metric "instantiation_failures")
  in
  let wall_ns = Obs.Metrics.histogram ~label:target (metric "wall_ns") in
  let ctx = { Arggen.g; cat = Framework.catalog fw } in
  let rec loop trials =
    if trials >= max_trials then None
    else
      match draw ctx trials with
      | None ->
        Obs.Metrics.incr inst_fail_c;
        loop (trials + 1)
      | Some query -> (
        match accept ctx ~trials:(trials + 1) query with
        | Some r -> Some r
        | None -> loop (trials + 1))
  in
  Obs.Trace.with_span ("qgen." ^ meth)
    ~args:[ ("target", Obs.Json.String target) ]
    (fun () ->
      if not (Obs.Metrics.enabled ()) then loop 0
      else begin
        let t0 = Obs.Clock.now_ns () in
        let result = loop 0 in
        Obs.Metrics.observe wall_ns (Obs.Clock.ns_between t0 (Obs.Clock.now_ns ()));
        (match result with
        | Some r -> Obs.Metrics.add trials_c r.trials
        | None ->
          Obs.Metrics.add trials_c max_trials;
          Obs.Metrics.incr not_found_c);
        result
      end)

let for_rule ?(max_trials = 50) ?(extra_ops = 0) fw g rule_name =
  match Framework.pattern_of fw rule_name with
  | None -> None
  | Some pattern ->
    search ~meth:"pattern" ~target:rule_name ~max_trials fw g
      ~draw:(fun ctx _ -> instantiate ctx pattern)
      ~accept:(finish fw ~extra_ops ~targets:[ rule_name ])

let for_pair ?(max_trials = 60) ?(extra_ops = 0) fw g (r1, r2) =
  match (Framework.pattern_of fw r1, Framework.pattern_of fw r2) with
  | Some p1, Some p2 ->
    let candidates = compose p1 p2 in
    let n = List.length candidates in
    search ~meth:"pair" ~target:(r1 ^ "+" ^ r2) ~max_trials fw g
      (* Round-robin over composite patterns, smallest first. *)
      ~draw:(fun ctx trials -> instantiate ctx (List.nth candidates (trials mod n)))
      ~accept:(finish fw ~extra_ops ~targets:[ r1; r2 ])
  | _ -> None

let relevant_for_rule ?(max_trials = 80) ?(extra_ops = 0) fw g rule_name =
  match Framework.pattern_of fw rule_name with
  | None -> None
  | Some pattern ->
    let relevant query =
      match
        ( Framework.optimize fw query,
          Framework.optimize fw ~disabled:[ rule_name ] query )
      with
      | Ok on, Ok off -> not (Optimizer.Physical.equal on.plan off.plan)
      | _ -> false
    in
    search ~meth:"relevant" ~target:rule_name ~max_trials fw g
      ~draw:(fun ctx _ -> instantiate ctx pattern)
      ~accept:(fun ctx ~trials query ->
        match finish fw ~extra_ops ~targets:[ rule_name ] ctx ~trials query with
        | Some g when relevant g.query -> Some g
        | _ -> None)

let random_for_rules ?(max_trials = 300) ?(min_ops = 2) ?(max_ops = 10) fw g
    targets =
  search ~meth:"random" ~target:(String.concat "+" targets) ~max_trials fw g
    ~draw:(fun ctx _ -> Some (Random_gen.generate ~min_ops ~max_ops ctx))
    ~accept:(finish fw ~extra_ops:0 ~targets)
