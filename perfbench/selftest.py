#!/usr/bin/env python3
"""Determinism and output-check test for the benchmark harness.

    python3 perfbench/selftest.py [--workload W ...] [--seed A] [--other-seed B]

Run from the repository root. For each workload (all three by default)
it runs the harness twice with seed A and requires the same suite digest
and the same suite cost both times, then once with seed B and requires
every output check to pass. rule-edit runs with --check-cold, so its
final incremental state is also compared with a cold rebuild. Exits 1 on
any failure.
"""

import argparse
import os
import shutil
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def harness(workload, seed, rep):
    return run.run_rep(workload, seed, rep, traced=False, check_cold=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    args = ap.parse_args()
    run.build()
    problems = []
    for workload in args.workload or run.WORKLOADS:
        a = harness(workload, args.seed, 0)
        b = harness(workload, args.seed, 1)
        c = harness(workload, args.other_seed, 2)
        for label, r in (("seed %d" % args.seed, a), ("seed %d again" % args.seed, b),
                         ("seed %d" % args.other_seed, c)):
            for f in r["failed_checks"]:
                problems.append("%s %s: %s: %s" % (workload, label, f["check"], f["detail"]))
            if r["failed"]:
                problems.append("%s %s: %d failed operations" % (workload, label, r["failed"]))
        if a["digest"] != b["digest"]:
            problems.append("%s: seed %d gave two suite digests" % (workload, args.seed))
        if a["metrics"]["suite_cost"] != b["metrics"]["suite_cost"]:
            problems.append("%s: seed %d gave two suite costs" % (workload, args.seed))
        print("%-18s digest %s cost %r; seed %d: %d checks %s" % (
            workload, a["digest"], a["metrics"]["suite_cost"], args.other_seed,
            c["checks"], "passed" if c["correct"] else "FAILED"))
    shutil.rmtree(run.TMP_ROOT, ignore_errors=True)
    for p in problems:
        print("FAIL " + p)
    if problems:
        sys.exit(1)
    print("ok")


if __name__ == "__main__":
    main()
