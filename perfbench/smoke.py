#!/usr/bin/env python3
"""Smoke check of the benchmark itself (a few seconds per run).

    python3 perfbench/smoke.py

1. A tiny run of every workload in BENCHMARK.json, untraced and traced, must
   pass its correctness check and print exactly the metrics BENCHMARK.json
   names, each with its unit; end-to-end values must be finite and non-zero.
2. Two runs with the same seed must agree bit for bit on tuned_gain (a
   deterministic ground-truth ratio) and, traced, on opt.ga_evals.
3. A run whose first Predict answer is corrupted (one bit flipped) must fail
   its correctness check: non-zero exit and "correct": false.
4. predict_lone, which is runnable but not gated, must also pass.

Exits 0 when every check holds, 1 otherwise, naming each failure.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "1"


def run(workload, trace, seed=1, corrupt=False):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = None
    if proc.returncode == 0:
        result = json.loads(proc.stdout.strip().split("\n")[-1])
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    def check_metrics(label, result, specs, nonzero):
        want = {m["name"]: m["unit"] for m in specs}
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        check(got == want, f"{label}: metric names and units match BENCHMARK.json"
              + ("" if got == want else f" (missing {sorted(set(want) - set(got))},"
                 f" extra {sorted(set(got) - set(want))},"
                 f" unit mismatches {sorted(k for k in want if k in got and got[k] != want[k])})"))
        values = {k: v.get("value") for k, v in result["metrics"].items()}
        bad = [k for k, v in values.items()
               if not isinstance(v, (int, float)) or not math.isfinite(v) or (nonzero and v == 0)]
        check(not bad, f"{label}: values finite{' and non-zero' if nonzero else ''} {bad or ''}")

    gains = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            proc, result = run(workload, trace)
            check(result is not None and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label}: exit 0, correct, nothing failed")
            if result is None:
                print(proc.stderr[-2000:], file=sys.stderr)
                continue
            if trace == 0:
                check_metrics(label, result, bench["end_to_end"], nonzero=True)
                gains[workload] = result["metrics"]["tuned_gain"]["value"]
            else:
                check_metrics(label, result, bench["per_layer"], nonzero=False)
                _, again = run(workload, 1)
                check(again is not None and again["metrics"]["opt.ga_evals"]["value"]
                      == result["metrics"]["opt.ga_evals"]["value"],
                      f"{label}: opt.ga_evals identical across two runs")
        _, again = run(workload, 0)
        check(again is not None and again["metrics"]["tuned_gain"]["value"] == gains.get(workload),
              f"{workload}: tuned_gain identical across two runs with seed 1")

    proc, result = run("predict_saturate", 0, corrupt=True)
    check(proc.returncode != 0 and result is None and '"correct": false' in proc.stderr,
          "a corrupted Predict answer fails the correctness check")

    _, result = run("predict_lone", 0)
    check(result is not None and result["correct"], "predict_lone (not gated) runs correct")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
