module L = Relalg.Logical

type target = Single of string | Pair of string * string

let target_name = function
  | Single r -> r
  | Pair (a, b) -> a ^ "+" ^ b

let rules_of = function Single r -> [ r ] | Pair (a, b) -> [ a; b ]

let all_pairs rules =
  let arr = Array.of_list rules in
  let n = Array.length arr in
  let pairs = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      pairs := Pair (arr.(i), arr.(j)) :: !pairs
    done
  done;
  List.rev !pairs

type entry = { query : L.t; ruleset : Framework.SSet.t; cost : float }

type t = {
  k : int;
  targets : target list;
  entries : entry array;
  per_target : (target * int list) list;
}

(* Disjoint fresh-alias ranges for parallel generation: task [ti] draws
   aliases from [ti * fresh_stride] upward. 100k aliases per target is
   far beyond what 3k generation attempts can consume. *)
let fresh_stride = 100_000

type gen_record = {
  gr_target : target;
  gr_index : int;
  gr_deps : string list;
  gr_accepted : entry list;
  gr_reused : bool;
}

(* PATTERN generation (§3) of one query for a target: the rule's
   pattern, or round-robin over a pair's composite patterns. *)
let make_generate_one ~extra_ops ~max_trials fw =
 fun g target ->
  let res =
    match target with
    | Single r -> Query_gen.for_rule ~max_trials ~extra_ops fw g r
    | Pair (a, b) -> Query_gen.for_pair ~max_trials ~extra_ops fw g (a, b)
  in
  Option.map (fun (r : Query_gen.generated) -> r.query) res

(* Pooled generation with provenance: each target is one task with its
   own PRNG substream (derived here, in target order, before fanning out)
   and its own fresh-alias range, so the queries a target yields are a
   function of the target index alone — the same for any job count,
   including the inline jobs=1 pool. Each task runs under a matched-rule
   collector, so its record carries the names of every rule whose pattern
   fired during generation and acceptance checking: the target's
   dependency set for incremental maintenance. [reuse ti target] may
   serve a target's accepted entries (and recorded deps) from a prior
   run's manifest, skipping generation entirely — the PRNG substream for
   the target is still split in order, so the remaining targets draw
   exactly what a full rebuild would. The cross-target dedup and
   entry-index assignment run on the calling domain in target order, so
   a suite built from any mix of reused and regenerated targets is
   byte-identical to the cold rebuild that regenerates everything. *)
let generate_tracked ?(extra_ops = 3) ?(max_trials = 60) ?reuse ~pool fw g
    ~targets ~k =
  Obs.Trace.with_span "suite.generate"
    ~args:[ ("targets", Obs.Json.Int (List.length targets)); ("k", Obs.Json.Int k) ]
  @@ fun () ->
  let dedup_c = Obs.Metrics.counter "suite.dedup_hits" in
  let entries : entry list ref = ref [] in
  let count = ref 0 in
  (* Structural dedup across the whole suite: query -> entry index,
     hashed with the full structural [Logical.hash] instead of a linear
     scan of every prior entry per candidate. *)
  let index : int L.Tbl.t = L.Tbl.create 64 in
  let generate_one = make_generate_one ~extra_ops ~max_trials fw in
  let tasks =
    List.mapi (fun ti target -> (ti, target, Storage.Prng.split g)) targets
  in
  let produced =
    Par.Pool.map_list pool
      (fun (ti, target, g) ->
        match (match reuse with None -> None | Some f -> f ti target) with
        | Some (accepted, deps) -> (target, accepted, deps, true)
        | None ->
          let accepted, deps =
            Framework.with_matched (fun () ->
                Relalg.Ident.set_fresh (ti * fresh_stride);
                let accepted = ref [] in
                let seen : unit L.Tbl.t = L.Tbl.create 16 in
                let attempts = ref 0 in
                let n = ref 0 in
                while !n < k && !attempts < 3 * k do
                  incr attempts;
                  match generate_one g target with
                  | None -> ()
                  | Some query ->
                    if not (L.Tbl.mem seen query) then begin
                      L.Tbl.replace seen query ();
                      match
                        (Framework.ruleset fw query, Framework.cost fw query)
                      with
                      | Ok ruleset, Ok cost ->
                        accepted := { query; ruleset; cost } :: !accepted;
                        incr n
                      | _ -> ()
                    end
                done;
                List.rev !accepted)
          in
          (target, accepted, deps, false))
      tasks
  in
  let records = ref [] in
  let per_target =
    List.mapi
      (fun ti (target, accepted, deps, reused) ->
        records :=
          { gr_target = target;
            gr_index = ti;
            gr_deps = deps;
            gr_accepted = accepted;
            gr_reused = reused }
          :: !records;
        let indices = ref [] in
        List.iter
          (fun (e : entry) ->
            let i =
              match L.Tbl.find_opt index e.query with
              | Some i ->
                Obs.Metrics.incr dedup_c;
                i
              | None ->
                entries := e :: !entries;
                L.Tbl.replace index e.query !count;
                incr count;
                !count - 1
            in
            if not (List.mem i !indices) then indices := i :: !indices)
          accepted;
        (target, List.rev !indices))
      produced
  in
  ( { k; targets; entries = Array.of_list (List.rev !entries); per_target },
    List.rev !records )

let generate ?(extra_ops = 3) ?(max_trials = 60) ?pool fw g ~targets ~k =
  match pool with
  | Some pool ->
    fst (generate_tracked ~extra_ops ~max_trials ~pool fw g ~targets ~k)
  | None ->
    Obs.Trace.with_span "suite.generate"
      ~args:
        [ ("targets", Obs.Json.Int (List.length targets)); ("k", Obs.Json.Int k) ]
    @@ fun () ->
    let dedup_c = Obs.Metrics.counter "suite.dedup_hits" in
    let entries : entry list ref = ref [] in
    let count = ref 0 in
    let index : int L.Tbl.t = L.Tbl.create 64 in
    let add query =
      match L.Tbl.find_opt index query with
      | Some i ->
        Obs.Metrics.incr dedup_c;
        Some i
      | None -> (
        match (Framework.ruleset fw query, Framework.cost fw query) with
        | Ok ruleset, Ok cost ->
          entries := { query; ruleset; cost } :: !entries;
          L.Tbl.replace index query !count;
          incr count;
          Some (!count - 1)
        | _ -> None)
    in
    let generate_one = make_generate_one ~extra_ops ~max_trials fw in
    (* Sequential reference: one PRNG stream threaded through every
       target in order, queries checked and interned as they appear. *)
    let per_target =
      List.map
        (fun target ->
          (* Up to k distinct queries; cap attempts so a hard target
             cannot stall the generation forever. *)
          let indices = ref [] in
          let attempts = ref 0 in
          while List.length !indices < k && !attempts < 3 * k do
            incr attempts;
            match generate_one g target with
            | None -> ()
            | Some query -> (
              match add query with
              | Some i when not (List.mem i !indices) -> indices := i :: !indices
              | _ -> ())
          done;
          (target, List.rev !indices))
        targets
    in
    { k; targets; entries = Array.of_list (List.rev !entries); per_target }

let covering t target =
  let wanted = rules_of target in
  let hits = ref [] in
  Array.iteri
    (fun i e ->
      if List.for_all (fun r -> Framework.SSet.mem r e.ruleset) wanted then
        hits := i :: !hits)
    t.entries;
  List.rev !hits

let shortfall t =
  List.filter_map
    (fun (target, indices) ->
      let n = List.length indices in
      if n < t.k then Some (target, t.k - n) else None)
    t.per_target
