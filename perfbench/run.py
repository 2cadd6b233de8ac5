#!/usr/bin/env python3
"""Build the benchmark driver from this checkout's sources, then run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: predict_saturate, predict_lone, tune_mix (see perfbench/README.md).
The build tree is $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root; the first run configures and compiles (about a
minute on 4 cores), later runs only re-check it. Build output goes to stderr,
so the last line of stdout is the driver's JSON result. Traced runs also
write their spans to <build tree>/spans/<workload>-seed<N>.tsv.

Exit status is non-zero, with no result printed, when the build fails (for
example in a directory without the Rafiki sources), when the run fails or
times out, or when an answer fails its correctness check.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(tree):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", tree,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", tree, "-j", jobs]]
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(tree, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["predict_saturate", "predict_lone", "tune_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one bit of the first Predict answer (checker self-test)")
    args = parser.parse_args()

    tree = build_dir()
    if not build(tree):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(tree, "rafiki_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(tree, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.tsv")]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if proc.returncode != 0 or result is None:
        # Keep the driver's output for a reader, but off stdout: no result.
        print("\n".join(lines), file=sys.stderr)
        print(f"perfbench: driver exited {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
