#!/usr/bin/env python3
"""Build the perfbench program from source and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload table3_social --seed 1 --seconds 10 --trace 0

The program (perfbench/CMakeLists.txt) compiles the library sources under
src/ into .bench_build/ in the current checkout; later runs rebuild only what
changed. Build output goes to stderr, so the program's last stdout line, one
JSON object, is the last line this script prints. Spans of the run are
written to .bench_build/spans/. Exits nonzero when the build fails or any
answer is wrong. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["table3_social", "table3_oversub", "serve_overload", "serve_catalog"]


def build(env):
    """Configure (once) and build the program; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    exe = build(env)
    if exe is None:
        return 2
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(
        spans_dir, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-out", spans]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
