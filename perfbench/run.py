#!/usr/bin/env python3
"""Benchmark entry point: builds the harness, runs one workload for a measuring
window, checks every output, and prints one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Each repetition is a fresh harness process
with a fresh cache directory under .perfbench_tmp/, removed afterwards.
Repetitions of one run share the seed, so they repeat the same inputs;
the run reports means over them. calibrate.exe times fixed reference
work before and after every repetition, and every timing is scaled by
CAL_REF_S over the run's mean piece time (see README.md, "Noise"); the
unscaled timings are reported as raw.* per-layer metrics. With --trace 1
the repetitions alternate untraced and traced, the per-layer metrics are
means over the traced ones, and trace.overhead_share compares the two
halves.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("registry-campaign", "fault-hunt", "rule-edit")
HARNESS = os.path.join("_build", "default", "perfbench", "harness.exe")
CALIBRATE = os.path.join("_build", "default", "perfbench", "calibrate.exe")
# About the mean time of one calibrate.exe piece on the machine the
# benchmark was tuned on (2-vCPU Intel Xeon VM at 2.0 GHz, OCaml 5.1.1).
# A timing t measured in a run whose pieces took c seconds on average is
# reported as t * CAL_REF_S / c.
CAL_REF_S = 0.1
TMP_ROOT = ".perfbench_tmp"
SPANS_DIR = ".perfbench_spans"
MIN_REPS = 3
# A run must end within 180 s of starting to measure, whatever happens.
RUN_DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "suite_cost": "cost",
}

PER_LAYER = {
    "suite.generate_s": "s",
    "suite.alloc_mw": "Mword",
    "suite.queries": "count",
    "suite.optimizer_runs": "count",
    "compress.topk_s": "s",
    "compress.alloc_mw": "Mword",
    "compress.edges_computed": "count",
    "compress.edges_warm": "count",
    "correctness.validate_s": "s",
    "correctness.alloc_mw": "Mword",
    "correctness.executions": "count",
    "correctness.skipped_identical": "count",
    "correctness.bugs": "count",
    "triage.reduce_s": "s",
    "triage.alloc_mw": "Mword",
    "triage.oracle_checks": "count",
    "triage.executions": "count",
    "triage.bugs_found": "count",
    "triage.reproducer_nodes": "count",
    "incr.diff_s": "s",
    "incr.persist_s": "s",
    "incr.edges_reused_share": "share",
    "incr.entries_reused": "count",
    "storage.datagen_s": "s",
    "storage.cache_bytes": "bytes",
    "optimizer.explore_self_s": "s",
    "optimizer.cost_self_s": "s",
    "query_gen.self_s": "s",
    "executor.batch_self_s": "s",
    "executor.rows": "count",
    "executor.result_cache_hit_ratio": "share",
    "executor.result_cache_lookups": "count",
    "executor.result_cache_disk_hits": "count",
    "framework.shared_cost_passes": "count",
    "gc.major_collections": "count",
    "trace.top_span_coverage": "share",
    "trace.overhead_share": "share",
    "raw.verdict_s": "s",
    "raw.cpu_s": "s",
    "raw.setup_s": "s",
    "calibration.piece_s": "s",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile("dune-project"):
        fail("no dune-project here: run from the repository root")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        dune + ["build", "--root", ".", "-j", "2", "perfbench/harness.exe",
                "perfbench/calibrate.exe"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0 or not (os.path.isfile(HARNESS) and os.path.isfile(CALIBRATE)):
        sys.stderr.write(proc.stderr)
        fail("build failed")


def run_rep(workload, seed, rep, traced, check_cold, timeout=RUN_DEADLINE_S):
    """One fresh harness process; returns its parsed result line."""
    cache_dir = os.path.join(TMP_ROOT, "%s-%d-%d-%d" % (workload, seed, os.getpid(), rep))
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.makedirs(cache_dir)
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--cache-dir", cache_dir]
    if traced:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(SPANS_DIR, "%s-%d.jsonl" % (workload, seed))]
    if check_cold:
        cmd.append("--check-cold")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s seed %d repetition %d timed out" % (workload, seed, rep))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("harness exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("harness printed nothing")
    return json.loads(lines[-1])


def calibrate(timeout):
    """Seconds each piece of calibrate.exe's fixed work took just now."""
    try:
        proc = subprocess.run([CALIBRATE], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("calibration timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("calibrate exited with %d" % proc.returncode)
    return [float(t) for t in proc.stdout.split()]


def measure(args):
    """Repeats the workload for the window; returns the repetitions as
    (traced, result) pairs and every calibration piece's time."""
    traced_run = args.trace == 1
    # A traced run needs at least two untraced/traced pairs.
    min_reps = 2 * ((MIN_REPS + 1) // 2) if traced_run else MIN_REPS
    reps = []
    start = time.monotonic()
    pieces = calibrate(RUN_DEADLINE_S)
    while True:
        rep = len(reps)
        # Untraced repetitions measure; in a traced run every second
        # repetition switches the program's telemetry on.
        traced = traced_run and rep % 2 == 1
        t0 = time.monotonic()
        timeout = max(1.0, RUN_DEADLINE_S - (t0 - start))
        result = run_rep(args.workload, args.seed, rep, traced,
                         check_cold=(rep == 0), timeout=timeout)
        after = calibrate(max(1.0, RUN_DEADLINE_S - (time.monotonic() - start)))
        pieces += after
        reps.append((traced, result))
        rep_s = time.monotonic() - t0
        m = result["metrics"]
        print("rep %d%s: verdict_s %.4f cpu_s %.4f setup_s %.4f piece %.4f wall %.1f s" % (
            rep, " traced" if traced else "", m["verdict_s"], m["cpu_s"], m["setup_s"],
            mean(after), rep_s), flush=True)
        elapsed = time.monotonic() - start
        # Stop once another repetition would more likely end past the
        # window than inside it.
        paired = not traced_run or len(reps) % 2 == 0
        if len(reps) >= min_reps and paired and elapsed + rep_s / 2 > args.seconds:
            return reps, pieces


def at_reference_speed(result, piece_s):
    """Scale every timing of one repetition to the reference speed, given
    the run's mean calibration piece, and keep the raw end-to-end
    timings as raw.* layers."""
    factor = CAL_REF_S / piece_s
    m, layers = result["metrics"], result["layers"]
    for name in ("verdict_s", "cpu_s", "setup_s"):
        layers["raw." + name] = m[name]
    layers["calibration.piece_s"] = piece_s
    for table in (m, layers):
        for name in list(table):
            if name.endswith("_s") and not name.startswith(("raw.", "calibration.")):
                table[name] *= factor


def mean(values):
    return statistics.fmean(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    traced_run = args.trace == 1

    build()

    # The two vCPUs of a shared host run at different speeds at the same
    # moment, so the harness and the calibration share one: this process
    # and every process it starts from here on run on a single CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    reps, pieces = measure(args)
    piece_s = mean(pieces)
    results = [r for _, r in reps]
    for r in results:
        at_reference_speed(r, piece_s)
    digests = {r["digest"] for r in results}
    correct = all(r["correct"] for r in results) and len(digests) == 1
    for r in results:
        for c in r["failed_checks"]:
            print("check failed: %s: %s" % (c["check"], c["detail"]), file=sys.stderr)
    if len(digests) != 1:
        print("check failed: repetitions of one seed tested different suites",
              file=sys.stderr)

    plain = [r for traced, r in reps if not traced]
    if traced_run:
        traced_reps = [r for traced, r in reps if traced]
        # The layer spans must account for the timed part.
        for r in traced_reps:
            coverage = r["layers"]["trace.top_span_coverage"]
            if coverage < 0.98:
                correct = False
                print("check failed: layer spans cover %.4f of verdict_s" % coverage,
                      file=sys.stderr)
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_share":
                untraced_v = mean([r["metrics"]["verdict_s"] for r in plain])
                traced_v = mean([r["metrics"]["verdict_s"] for r in traced_reps])
                value = traced_v / untraced_v - 1.0
            else:
                value = mean([r["layers"][name] for r in traced_reps])
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": mean([r["metrics"][name] for r in plain]),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}

    print("workload %s seed %d: %d repetitions, calibration piece %.4f s over %d pieces" % (
        args.workload, args.seed, len(reps), piece_s, len(pieces)))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
