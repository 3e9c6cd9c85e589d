(* Observability layer added with the span profiler: trace-consumer
   fan-out and per-line flushing, profile aggregation invariants
   (self/total accounting, percentile monotonicity, folded stacks),
   multi-domain trace well-formedness under a 4-domain pool, and the
   bench-diff regression gate. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* Profiler + metrics state is global; leave both as we found them. *)
let with_profile f =
  Obs.Profile.disable ();
  Obs.Profile.reset ();
  Obs.Profile.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Profile.disable ();
      Obs.Profile.reset ())
    f

let spin () =
  (* A few microseconds of real work, so span durations are nonzero. *)
  let acc = ref 0 in
  for i = 1 to 20_000 do
    acc := !acc + i
  done;
  ignore (Sys.opaque_identity !acc)

let row name =
  match List.find_opt (fun (r : Obs.Profile.row) -> r.name = name) (Obs.Profile.rows ()) with
  | Some r -> r
  | None -> Alcotest.failf "no profile row for %S" name

let close_to a b =
  (* Self/total identities hold up to float summation order. *)
  Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* ------------------------------------------------------------------ *)
(* Profile aggregation                                                 *)
(* ------------------------------------------------------------------ *)

let test_profile_self_total () =
  with_profile @@ fun () ->
  for _ = 1 to 5 do
    Obs.Trace.with_span "pa" (fun () ->
        spin ();
        Obs.Trace.with_span "pb" spin;
        Obs.Trace.with_span "pb" spin)
  done;
  let a = row "pa" and b = row "pb" in
  check int_t "pa count" 5 a.count;
  check int_t "pb count" 10 b.count;
  check bool_t "self <= total" true (a.self_ns <= a.total_ns);
  (* Every pb span is a direct child of pa, so pa's child time is
     exactly pb's total: self(pa) = total(pa) - total(pb). *)
  check bool_t "self = total - children" true
    (close_to a.self_ns (a.total_ns -. b.total_ns));
  (* A leaf's self time is its total. *)
  check bool_t "leaf self = total" true (close_to b.self_ns b.total_ns);
  check int_t "no unmatched ends" 0 (Obs.Profile.unmatched ())

let test_profile_percentiles_monotone () =
  with_profile @@ fun () ->
  for _ = 1 to 50 do
    Obs.Trace.with_span "pq" spin
  done;
  let r = row "pq" in
  check bool_t "min <= p50" true (r.min_ns <= r.p50_ns);
  check bool_t "p50 <= p95" true (r.p50_ns <= r.p95_ns);
  check bool_t "p95 <= max" true (r.p95_ns <= r.max_ns);
  check bool_t "positive durations" true (r.min_ns > 0.0)

let test_profile_folded_stacks () =
  with_profile @@ fun () ->
  Obs.Trace.with_span "fa" (fun () -> Obs.Trace.with_span "fb" spin);
  Obs.Trace.with_span "fb" spin;
  let folded = Obs.Profile.folded () in
  let has path = List.mem_assoc path folded in
  check bool_t "root path" true (has "fa");
  check bool_t "nested path" true (has "fa;fb");
  check bool_t "same name at top level is a distinct path" true (has "fb");
  (* Folded self times and the flat rows are two views of one total. *)
  let sum_folded = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 folded in
  let sum_rows =
    List.fold_left (fun acc (r : Obs.Profile.row) -> acc +. r.self_ns) 0.0
      (Obs.Profile.rows ())
  in
  check bool_t "folded sums to rows" true (close_to sum_folded sum_rows)

let test_profile_disable_keeps_data () =
  with_profile @@ fun () ->
  Obs.Trace.with_span "pd" spin;
  Obs.Profile.disable ();
  check bool_t "disabled" false (Obs.Profile.enabled ());
  Obs.Trace.with_span "pd" spin;
  check int_t "no recording while disabled" 1 (row "pd").count;
  Obs.Profile.reset ();
  check int_t "reset drops rows" 0 (List.length (Obs.Profile.rows ()))

let test_profile_json_projection () =
  with_profile @@ fun () ->
  Obs.Trace.with_span "pj" spin;
  let j = Obs.Profile.to_json () in
  (* Must be a self-contained, serializable document. *)
  match Obs.Json.of_string (Obs.Json.to_string j) with
  | Error e -> Alcotest.failf "profile json does not round-trip: %s" e
  | Ok _ ->
    check bool_t "spans member present" true (Obs.Json.member "spans" j <> None);
    check bool_t "folded member present" true (Obs.Json.member "folded" j <> None)

(* ------------------------------------------------------------------ *)
(* Multi-domain tracing                                                *)
(* ------------------------------------------------------------------ *)

let str_member key j =
  match Obs.Json.member key j with Some (Obs.Json.String s) -> s | _ -> ""

let int_member key j =
  match Option.bind (Obs.Json.member key j) Obs.Json.to_int with
  | Some i -> i
  | None -> -1

let test_multidomain_trace_wellformed () =
  Obs.Metrics.set_enabled true;
  let buf = Buffer.create 4096 in
  Obs.Trace.start_buffer buf;
  Obs.Profile.enable ();
  let pool = Par.Pool.create ~jobs:4 () in
  let results =
    Fun.protect
      ~finally:(fun () ->
        Obs.Profile.disable ();
        Obs.Trace.stop ();
        Obs.Metrics.set_enabled false;
        Obs.Metrics.clear ();
        Obs.Profile.reset ())
      (fun () ->
        let r =
          Par.Pool.init pool 16 (fun i ->
              Obs.Trace.with_span "task"
                ~args:[ ("i", Obs.Json.Int i) ]
                (fun () ->
                  Obs.Trace.with_span "task.inner" spin;
                  i * i))
        in
        (* On a loaded 1-core machine the caller can drain the whole
           cursor before a helper wakes up; an explicit domain makes a
           second tid deterministic. *)
        Domain.join
          (Domain.spawn (fun () ->
               Obs.Trace.with_span "task" (fun () ->
                   Obs.Trace.with_span "task.inner" spin)));
        r)
  in
  check bool_t "results correct" true
    (results = Array.init 16 (fun i -> i * i));
  (* Every line of the concurrent trace must parse on its own... *)
  let events =
    Buffer.contents buf |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match Obs.Json.of_string l with
           | Ok j -> j
           | Error e -> Alcotest.failf "unparseable trace line %S: %s" l e)
  in
  (* ...and the B/E events of each domain (tid) must nest like a stack. *)
  let tids =
    List.sort_uniq compare (List.map (fun e -> int_member "tid" e) events)
  in
  check bool_t "several domains emitted" true (List.length tids >= 2);
  List.iter
    (fun tid ->
      let mine = List.filter (fun e -> int_member "tid" e = tid) events in
      let leftover =
        List.fold_left
          (fun stack ev ->
            match str_member "ph" ev with
            | "B" -> str_member "name" ev :: stack
            | "E" -> (
              match stack with
              | top :: rest ->
                check bool_t "E matches innermost B" true
                  (top = str_member "name" ev);
                rest
              | [] -> Alcotest.fail "E without matching B")
            | _ -> stack)
          [] mine
      in
      check int_t "balanced per tid" 0 (List.length leftover))
    tids;
  (* The pool contributes counter samples and per-worker instants. *)
  check bool_t "queue-depth counters present" true
    (List.exists
       (fun e -> str_member "ph" e = "C" && str_member "name" e = "par.queue_depth")
       events);
  check bool_t "worker instants present" true
    (List.exists
       (fun e -> str_member "ph" e = "i" && str_member "name" e = "par.worker")
       events)

let test_multidomain_profile_rows () =
  Obs.Profile.disable ();
  Obs.Profile.reset ();
  Obs.Profile.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Profile.disable ();
      Obs.Profile.reset ())
    (fun () ->
      let pool = Par.Pool.create ~jobs:3 () in
      ignore
        (Par.Pool.init pool 12 (fun i ->
             Obs.Trace.with_span "mtask" spin;
             i));
      (* Task stealing is not guaranteed to involve a helper on a busy
         1-core machine; an explicit domain is. *)
      Domain.join (Domain.spawn (fun () -> Obs.Trace.with_span "mtask" spin));
      let r = row "mtask" in
      check int_t "all tasks profiled" 13 r.count;
      check bool_t "more than one emitting domain" true
        (List.length (Obs.Profile.rows_by_domain ()) >= 2))

(* ------------------------------------------------------------------ *)
(* Trace durability (per-line flush)                                   *)
(* ------------------------------------------------------------------ *)

let test_trace_flushes_per_line () =
  let path = Filename.temp_file "qtr_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace.start path;
      Obs.Trace.with_span "flushed" (fun () -> ());
      (* Before stop/close: the span must already be on disk. *)
      let ic = open_in path in
      let len = in_channel_length ic in
      close_in ic;
      Obs.Trace.stop ();
      check bool_t "events visible before stop" true (len > 0))

(* ------------------------------------------------------------------ *)
(* bench-diff regression gate                                          *)
(* ------------------------------------------------------------------ *)

module B = Obs.Benchcmp

let bench_doc ?(fig12_shape = true) ~speedup ~agree ~jobs4_identical () =
  Obs.Json.Obj
    [ ( "details",
        Obs.Json.Obj
          [ ( "fig12",
              Obs.Json.Obj [ ("topk_le_smc_le_baseline", Obs.Json.Bool fig12_shape) ] );
            ( "execute",
              Obs.Json.Obj
                [ ("speedup", Obs.Json.Float speedup);
                  ("agree", Obs.Json.Bool agree) ] );
            ( "parallel",
              Obs.Json.Obj
                [ ( "runs",
                    Obs.Json.List
                      [ Obs.Json.Obj
                          [ ("jobs", Obs.Json.Int 1);
                            ("identical_to_jobs1", Obs.Json.Bool true) ];
                        Obs.Json.Obj
                          [ ("jobs", Obs.Json.Int 4);
                            ("identical_to_jobs1", Obs.Json.Bool jobs4_identical);
                            ("speedup_vs_jobs1", Obs.Json.Float 1.4) ] ] ) ] ) ] ) ]

let specs =
  [ { B.path = "details/fig12/topk_le_smc_le_baseline"; dir = B.Higher_is_better;
      kind = B.Flag; threshold = 0.0 };
    { B.path = "details/execute/speedup"; dir = B.Higher_is_better; kind = B.Ratio;
      threshold = 0.25 };
    { B.path = "details/execute/agree"; dir = B.Higher_is_better; kind = B.Flag;
      threshold = 0.0 };
    { B.path = "details/parallel/runs[jobs=4]/identical_to_jobs1";
      dir = B.Higher_is_better; kind = B.Flag; threshold = 0.0 } ]

let regressed findings = List.length (B.regressions findings)

let test_benchdiff_passes_identical () =
  let doc = bench_doc ~speedup:2.0 ~agree:true ~jobs4_identical:true () in
  let fs = B.compare_results ~specs ~old_doc:doc ~new_doc:doc () in
  check int_t "all compared" 4 (List.length fs);
  check int_t "no regressions on identical docs" 0 (regressed fs)

let test_benchdiff_catches_injected_regression () =
  (* The synthetic injection of the acceptance criterion: halving a
     gated speedup must make the gate fire (qtr bench-diff exits 1 when
     [regressions] is non-empty). *)
  let old_doc = bench_doc ~speedup:2.0 ~agree:true ~jobs4_identical:true () in
  let new_doc = bench_doc ~speedup:1.0 ~agree:true ~jobs4_identical:true () in
  let fs = B.compare_results ~specs ~old_doc ~new_doc () in
  check bool_t "regression detected" true (regressed fs > 0);
  let f =
    List.find (fun (f : B.finding) -> f.spec.B.path = "details/execute/speedup") fs
  in
  check bool_t "classified Regressed" true (f.status = B.Regressed)

let test_benchdiff_flags_are_slack_immune () =
  let old_doc = bench_doc ~speedup:2.0 ~agree:true ~jobs4_identical:true () in
  let new_doc = bench_doc ~speedup:2.0 ~agree:true ~jobs4_identical:false () in
  (* Huge slack forgives any numeric wobble but never a flipped flag. *)
  let fs = B.compare_results ~specs ~slack:1000.0 ~old_doc ~new_doc () in
  check int_t "flag flip still fires" 1 (regressed fs);
  (* A figure whose shape stops holding fires the same way. *)
  let broken = bench_doc ~fig12_shape:false ~speedup:2.0 ~agree:true ~jobs4_identical:true () in
  let fs = B.compare_results ~specs ~slack:1000.0 ~old_doc ~new_doc:broken () in
  check int_t "figure shape flip still fires" 1 (regressed fs);
  let fs = B.compare_results ~slack:1000.0 ~old_doc ~new_doc:broken () in
  check bool_t "default specs gate the fig12 shape" true
    (List.exists
       (fun (f : B.finding) ->
         f.spec.B.path = "details/fig12/topk_le_smc_le_baseline" && f.status = B.Regressed)
       fs);
  (* ...while slack does forgive a numeric drop of the same magnitude. *)
  let slow = bench_doc ~speedup:1.0 ~agree:true ~jobs4_identical:true () in
  let fs' = B.compare_results ~specs ~slack:1000.0 ~old_doc ~new_doc:slow () in
  check int_t "numeric drop forgiven under slack" 0 (regressed fs')

let test_benchdiff_missing_and_improved () =
  let old_doc = bench_doc ~speedup:2.0 ~agree:true ~jobs4_identical:true () in
  let better = bench_doc ~speedup:4.0 ~agree:true ~jobs4_identical:true () in
  let fs = B.compare_results ~specs ~old_doc ~new_doc:better () in
  let f =
    List.find (fun (f : B.finding) -> f.spec.B.path = "details/execute/speedup") fs
  in
  check bool_t "doubling is Improved" true (f.status = B.Improved);
  (* A gated metric vanishing from the new document is a regression. *)
  let gone = Obs.Json.Obj [ ("details", Obs.Json.Obj []) ] in
  let fs' = B.compare_results ~specs ~old_doc ~new_doc:gone () in
  check int_t "vanished metrics regress" 4 (regressed fs')

let test_benchdiff_negative_baselines () =
  (* Relative kinds keep the band the right way round for negative
     baselines (e.g. a speedup measured below zero on a noisy box). *)
  let doc v = Obs.Json.Obj [ ("speedup", Obs.Json.Float v) ] in
  let rspec =
    [ { B.path = "speedup"; dir = B.Higher_is_better; kind = B.Ratio;
        threshold = 0.25 } ]
  in
  let fs = B.compare_results ~specs:rspec ~old_doc:(doc (-2.0)) ~new_doc:(doc (-2.0)) () in
  check int_t "identical negative ratio passes" 0 (regressed fs);
  let fs = B.compare_results ~specs:rspec ~old_doc:(doc (-2.0)) ~new_doc:(doc (-2.4)) () in
  check int_t "drift inside the band passes" 0 (regressed fs);
  let fs = B.compare_results ~specs:rspec ~old_doc:(doc (-2.0)) ~new_doc:(doc (-4.0)) () in
  check int_t "worsening negative ratio fires" 1 (regressed fs)

(* A higher-is-better band is capped at half the baseline whatever the
   slack: at slack 10 a 0.25 ratio band would otherwise span 2.5x the
   baseline, so no drop could ever fire. *)
let test_benchdiff_band_cap () =
  let doc v =
    Obs.Json.Obj
      [ ("details", Obs.Json.Obj [ ("matrix", Obs.Json.Obj [ ("speedup", Obs.Json.Float v) ]) ]) ]
  in
  let speedup = "details/matrix/speedup" in
  let status new_v =
    let fs =
      B.compare_results ~slack:10.0 ~old_doc:(doc 18.88) ~new_doc:(doc new_v) ()
    in
    (List.find (fun (f : B.finding) -> f.spec.B.path = speedup) fs).status
  in
  check bool_t "18.88 -> 5 regresses at slack 10" true (status 5.0 = B.Regressed);
  check bool_t "18.88 -> 12.88 passes at slack 10" true (status 12.88 = B.Passed)

let test_benchdiff_path_selectors () =
  let doc = bench_doc ~speedup:2.5 ~agree:true ~jobs4_identical:true () in
  check bool_t "plain path" true
    (B.lookup doc "details/execute/speedup" = Some 2.5);
  check bool_t "selector picks the jobs=4 element" true
    (B.lookup doc "details/parallel/runs[jobs=4]/speedup_vs_jobs1" = Some 1.4);
  check bool_t "bool reads as 1" true
    (B.lookup doc "details/parallel/runs[jobs=1]/identical_to_jobs1" = Some 1.0);
  check bool_t "missing path is None" true (B.lookup doc "details/nope" = None)

(* A default spec whose path the checked-in baseline lacks would report
   "new-metric" and pass forever; every one must resolve, and every
   flag must read true there. *)
let test_benchdiff_baseline_covers_default_specs () =
  let text = In_channel.with_open_bin "../bench/BASELINE.json" In_channel.input_all in
  let baseline =
    match Obs.Json.of_string text with
    | Ok j -> j
    | Error e -> Alcotest.failf "bench/BASELINE.json: %s" e
  in
  List.iter
    (fun (spec : B.spec) ->
      match (B.lookup baseline spec.path, spec.kind) with
      | None, _ -> Alcotest.failf "%s missing from bench/BASELINE.json" spec.path
      | Some v, B.Flag ->
        check bool_t (spec.path ^ " holds in the baseline") true (v >= 0.5)
      | Some _, _ -> ())
    B.default_specs

let suite =
  [ ( "obs-profile",
      [ Alcotest.test_case "self/total accounting" `Quick test_profile_self_total;
        Alcotest.test_case "percentiles monotone" `Quick
          test_profile_percentiles_monotone;
        Alcotest.test_case "folded stacks" `Quick test_profile_folded_stacks;
        Alcotest.test_case "disable keeps data, reset drops" `Quick
          test_profile_disable_keeps_data;
        Alcotest.test_case "json projection" `Quick test_profile_json_projection;
        Alcotest.test_case "multi-domain trace well-formed" `Quick
          test_multidomain_trace_wellformed;
        Alcotest.test_case "multi-domain profile rows" `Quick
          test_multidomain_profile_rows;
        Alcotest.test_case "trace flushes per line" `Quick
          test_trace_flushes_per_line ] );
    ( "bench-diff",
      [ Alcotest.test_case "identical docs pass" `Quick test_benchdiff_passes_identical;
        Alcotest.test_case "injected regression fires the gate" `Quick
          test_benchdiff_catches_injected_regression;
        Alcotest.test_case "flags are slack-immune" `Quick
          test_benchdiff_flags_are_slack_immune;
        Alcotest.test_case "band capped at half" `Quick test_benchdiff_band_cap;
        Alcotest.test_case "missing and improved statuses" `Quick
          test_benchdiff_missing_and_improved;
        Alcotest.test_case "negative baselines" `Quick test_benchdiff_negative_baselines;
        Alcotest.test_case "path selectors" `Quick test_benchdiff_path_selectors;
        Alcotest.test_case "baseline covers default specs" `Quick
          test_benchdiff_baseline_covers_default_specs ] ) ]
