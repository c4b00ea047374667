#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run it.

Run from the root of an rchdroid checkout:

  python3 e2ebench/run.py --workload sim_stock --seed 1 --seconds 30 --trace 0

The first run configures and compiles the simulator, the static analyzer,
the model checker and the benchmark binary (Release) into
.bench_build/e2ebench; later runs only re-check that build. Every
argument is passed through to the binary, which validates it. The build's
own output goes to stderr, so the binary's result line stays the last
line of stdout. A traced run also leaves its spans (Chrome trace-event
JSON) next to the build.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "rch_e2ebench")
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configure (once) and compile; returns False on any failure."""
    source = os.path.join(ROOT, "e2ebench")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", JOBS])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("e2ebench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def trace_path(args):
    """Where a traced run writes its spans, or None for untraced runs."""
    if "--trace" not in args:
        return None
    at = args.index("--trace")
    if at + 1 >= len(args) or args[at + 1] != "1":
        return None
    name = "trace"
    for flag in ("--workload", "--seed"):
        if flag in args and args.index(flag) + 1 < len(args):
            name += "-" + args[args.index(flag) + 1]
    return os.path.join(BUILD, name + ".json")


def main():
    args = sys.argv[1:]
    if not build():
        return 1
    command = [BINARY] + args
    out = trace_path(args)
    if out is not None and not any(a.startswith("--trace-out") for a in args):
        command += ["--trace-out", out]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
