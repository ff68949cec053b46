#!/usr/bin/env python3
"""Build and run one workload of the McVerSi benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Builds the repository's libraries and the runner (Release) into
.bench_build/perfbench, runs the workload, and passes the runner's
output through. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). Exits non-zero, without a result, when
the build fails or the runner cannot run, and non-zero with a result
when an output was wrong. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "mcversi_perfbench")
WORKLOADS = ("campaign-clean", "islands-parallel", "bug-hunt", "witness-check")
# Everyday seed; README.md names the held-out seed for confirming claims.
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configure and build the runner; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        # The generator is fixed when the build tree is first made.
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", BUILD_DIR, "--target",
                         "mcversi_perfbench", "-j", jobs]]
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                       stderr=sys.stderr, timeout=BUILD_TIMEOUT_S, check=True)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        build()
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        # On timeout, run() kills the runner and waits for it to exit.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: runner failed: {err}", file=sys.stderr)
        return 3

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: runner exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 4
    mismatch = expected_metrics(args.trace) ^ set(result["metrics"])
    if mismatch:
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(mismatch)}", file=sys.stderr)
        return 5
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
