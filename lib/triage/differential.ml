module H = Relalg.Hashcons
module P = Relalg.Props
module RS = Executor.Resultset

let checks_c = Obs.Metrics.counter "triage.differential.checks"
let exec_c = Obs.Metrics.counter "triage.differential.executions"

let plan ?(budget = 1) cat t =
  let options = { Optimizer.Engine.default_options with max_trees = budget } in
  match Optimizer.Engine.optimize ~options ~rules:[] cat t with
  | Error e -> Error e
  | Ok r -> Ok r.plan

let check ?(site = "differential") ?(budget = 1) cat lhs rhs =
  let ( let* ) = Result.bind in
  Obs.Metrics.incr checks_c;
  let* () = Result.map_error (fun e -> "lhs validate: " ^ e) (P.validate cat lhs) in
  let* () = Result.map_error (fun e -> "rhs validate: " ^ e) (P.validate cat rhs) in
  let* rhs =
    Result.map H.repr (Optimizer.Rule.align cat ~reference:(H.intern lhs) (H.intern rhs))
  in
  let* lplan = Result.map_error (fun e -> "lhs plan: " ^ e) (plan ~budget cat lhs) in
  let* rplan = Result.map_error (fun e -> "rhs plan: " ^ e) (plan ~budget cat rhs) in
  (* Logical executions: counted whether or not the result cache serves
     the run, so reported totals match across [--jobs] settings. *)
  Obs.Metrics.add exec_c 2;
  let* expected =
    Result.map_error (fun e -> "lhs exec: " ^ e) (Executor.Cache.run ~site cat lplan)
  in
  match Executor.Cache.run ~site cat rplan with
  | Error e ->
    Ok (Some (Divergence.exec_error ~expected_rows:(RS.row_count expected) e))
  | Ok actual -> (
    match RS.diverges expected actual with
    | None -> Ok None
    | Some diff -> Ok (Some (Divergence.of_diff ~expected ~actual diff)))
