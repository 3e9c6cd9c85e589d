(* Benchmark regression gate: compares two bench result documents
   (BENCH_results.json) metric by metric against per-metric thresholds.
   Pure JSON-in, findings-out, so the gate is testable without running a
   benchmark and `qtr bench-diff` is a thin shell around it. *)

type direction = Higher_is_better | Lower_is_better
type kind = Ratio | Seconds | Flag | Count

type spec = { path : string; dir : direction; kind : kind; threshold : float }

type status = Passed | Regressed | Improved | Missing_old | Missing_new

type finding = {
  spec : spec;
  old_v : float option;
  new_v : float option;
  change_pct : float;
  status : status;
}

(* ------------------------------------------------------------------ *)
(* Path lookup: "details/parallel/runs[jobs=4]/speedup_vs_jobs1"       *)
(* ------------------------------------------------------------------ *)

(* A segment is either a plain object member or "name[key=value]",
   which selects from the list under [name] the object whose [key]
   member equals [value] (int or string). *)
let split_segment seg =
  match String.index_opt seg '[' with
  | None -> (seg, None)
  | Some i when String.length seg > 0 && seg.[String.length seg - 1] = ']' ->
    let name = String.sub seg 0 i in
    let inner = String.sub seg (i + 1) (String.length seg - i - 2) in
    (match String.index_opt inner '=' with
    | None -> (seg, None)
    | Some j ->
      let key = String.sub inner 0 j in
      let v = String.sub inner (j + 1) (String.length inner - j - 1) in
      (name, Some (key, v)))
  | _ -> (seg, None)

let select_match key v items =
  List.find_opt
    (fun item ->
      match Json.member key item with
      | Some (Json.Int i) -> string_of_int i = v
      | Some (Json.String s) -> s = v
      | Some (Json.Bool b) -> string_of_bool b = v
      | _ -> false)
    items

let rec walk json = function
  | [] -> Some json
  | seg :: rest -> (
    let name, selector = split_segment seg in
    match Json.member name json with
    | None -> None
    | Some child -> (
      match selector with
      | None -> walk child rest
      | Some (key, v) -> (
        match child with
        | Json.List items ->
          Option.bind (select_match key v items) (fun item -> walk item rest)
        | _ -> None)))

let find json path = walk json (String.split_on_char '/' path)

let as_float = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | Json.Bool b -> Some (if b then 1.0 else 0.0)
  | _ -> None

let lookup json path = Option.bind (find json path) as_float

(* ------------------------------------------------------------------ *)
(* Default metric set                                                  *)
(* ------------------------------------------------------------------ *)

let ratio path ?(threshold = 0.25) dir = { path; dir; kind = Ratio; threshold }
let seconds path = { path; dir = Lower_is_better; kind = Seconds; threshold = 0.35 }
let flag path = { path; dir = Higher_is_better; kind = Flag; threshold = 0.0 }
let count path = { path; dir = Higher_is_better; kind = Count; threshold = 0.25 }

let default_specs =
  [ (* The paper's Figure 8-14 shapes, each recorded by its figure as one
       boolean: machine-independent, zero tolerance. *)
    flag "details/fig8/pattern_5x_fewer_trials";
    flag "details/fig11/smc_topk_10x_below_baseline";
    flag "details/fig12/topk_le_smc_le_baseline";
    flag "details/fig13/topk_le_smc_le_baseline";
    flag "details/fig14/saving_5x_equal_quality";
    (* Engine/executor speedups: the ratios are what the optimizations
       bought; they may wobble with load but must not collapse. *)
    ratio "details/explore/speedup" Higher_is_better;
    ratio "details/matrix/speedup" Higher_is_better;
    ratio "details/execute/speedup" Higher_is_better;
    ratio "details/execute/compiled_rows_per_sec" ~threshold:0.5 Higher_is_better;
    ratio "details/execute/result_cache/hit_rate" ~threshold:0.2 Higher_is_better;
    (* Correctness flags: machine-independent, zero tolerance. *)
    flag "details/execute/agree";
    flag "details/parallel/runs[jobs=2]/identical_to_jobs1";
    flag "details/parallel/runs[jobs=4]/identical_to_jobs1";
    (* The span profiler stays nearly free: median CPU time at jobs 1,
       against a bound the bench itself applies. *)
    flag "details/explore/profile_overhead_ok";
    (* Incremental maintenance: byte-identity is a zero-tolerance flag;
       the warm-edit speedup and reuse ratio are what the manifest layer
       bought and must not collapse. *)
    flag "details/incremental/identical";
    ratio "details/incremental/speedup" ~threshold:0.5 Higher_is_better;
    ratio "details/incremental/edges_reused_ratio" ~threshold:0.1 Higher_is_better;
    (* Triage quality. *)
    ratio "details/reduce/median_shrink" ~threshold:0.2 Higher_is_better;
    count "details/reduce/reproducers";
    (* Discovery: enumeration and validation are fully deterministic, so
       the counts gate tightly; the seeded-unsound sweep is a
       zero-tolerance flag. *)
    flag "details/discover/seeded_all_refuted";
    count "details/discover/candidates";
    count "details/discover/rediscovered";
    count "details/discover/promoted";
    (* Symbolic oracle: fully deterministic verdicts, so the flags are
       zero-tolerance and the sound count gates tightly. *)
    flag "details/verify/registered_all_sound";
    flag "details/verify/known_sound_all_sound";
    flag "details/verify/seeded_all_refuted";
    count "details/verify/sound";
    (* Wall clocks, the noisiest tier: per-experiment seconds. *)
    seconds "experiment_seconds/explore";
    seconds "experiment_seconds/matrix";
    seconds "experiment_seconds/incremental";
    seconds "experiment_seconds/parallel";
    seconds "experiment_seconds/execute";
    seconds "experiment_seconds/reduce";
    seconds "experiment_seconds/discover";
    seconds "experiment_seconds/verify" ]

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let change_pct old_v new_v =
  if old_v = 0.0 then if new_v = 0.0 then 0.0 else Float.infinity
  else 100.0 *. (new_v -. old_v) /. Float.abs old_v

let compare_one ~slack spec old_v new_v =
  match (old_v, new_v) with
  | None, None -> None
  | Some _, None -> Some { spec; old_v; new_v; change_pct = 0.0; status = Missing_new }
  | None, Some _ -> Some { spec; old_v; new_v; change_pct = 0.0; status = Missing_old }
  | Some o, Some n ->
    let pct = change_pct o n in
    let status =
      match spec.kind with
      | Flag ->
        (* Zero tolerance, slack-independent: true may not become
           false. *)
        if o >= 0.5 && n < 0.5 then Regressed
        else if o < 0.5 && n >= 0.5 then Improved
        else Passed
      | Ratio | Seconds | Count ->
        (* Band scaled by |old| so a negative baseline (e.g. a measured
           speedup below zero on a noisy box) keeps the band the right
           way round. A higher-is-better band is capped at half of |old|
           whatever the slack: uncapped, a threshold of 0.1 at slack 10
           spans the whole baseline and the metric could never regress;
           capped, a metric that halves does. *)
        let band = spec.threshold *. slack *. Float.abs o in
        let band =
          match spec.dir with
          | Higher_is_better -> Float.min band (0.5 *. Float.abs o)
          | Lower_is_better -> band
        in
        let bad, good =
          match spec.dir with
          | Higher_is_better -> (n < o -. band, n > o +. band)
          | Lower_is_better -> (n > o +. band, n < o -. band)
        in
        if bad then Regressed else if good then Improved else Passed
    in
    Some { spec; old_v; new_v; change_pct = pct; status }

let compare_results ?(specs = default_specs) ?(slack = 1.0) ~old_doc ~new_doc () =
  List.filter_map
    (fun spec ->
      compare_one ~slack spec (lookup old_doc spec.path) (lookup new_doc spec.path))
    specs

let regressions findings =
  List.filter
    (fun f -> match f.status with Regressed | Missing_new -> true | _ -> false)
    findings

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let status_name = function
  | Passed -> "ok"
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | Missing_old -> "new-metric"
  | Missing_new -> "MISSING"

let finding_json f =
  let opt = function Some v -> Json.Float v | None -> Json.Null in
  Json.Obj
    [ ("metric", Json.String f.spec.path);
      ("old", opt f.old_v);
      ("new", opt f.new_v);
      ("change_pct", Json.Float f.change_pct);
      ("status", Json.String (status_name f.status)) ]

let findings_json findings =
  Json.Obj
    [ ("regressions", Json.Int (List.length (regressions findings)));
      ("findings", Json.List (List.map finding_json findings)) ]

let pp_finding fmt f =
  let show = function Some v -> Printf.sprintf "%.4g" v | None -> "-" in
  Format.fprintf fmt "%-10s %-55s %12s -> %-12s %+.1f%%" (status_name f.status)
    f.spec.path (show f.old_v) (show f.new_v) f.change_pct
