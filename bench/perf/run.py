#!/usr/bin/env python3
"""Builds alem_perf from source and runs one benchmark workload.

    python3 bench/perf/run.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/perf/run.py compare A.jsonl B.jsonl

Run from the root of a checkout. The Release build goes to
$CARGO_TARGET_DIR/alem_perf (default .bench_build/alem_perf); build output
goes to stderr, so the last line of stdout is alem_perf's JSON result.
With --trace 1 the Chrome trace is written next to the build. Any further
arguments (for example --record=FILE) are passed through to alem_perf.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build(build_dir):
    """Configures (once) and builds alem_perf; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("run.py: no alembench sources next to bench/perf; "
                 "run it from a full checkout")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "alem_perf",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "alem_perf")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "alem_perf")
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as error:
        sys.exit("run.py: build failed: %s" % error)

    if sys.argv[1:2] == ["compare"]:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, passthrough = parser.parse_known_args()
    command = [binary, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%d" % args.seconds,
               "--work-dir=" + os.path.join(build_dir, "work")]
    if args.trace:
        command.append("--trace=" + os.path.join(
            build_dir, "%s-%d.trace.json" % (args.workload, args.seed)))
    return subprocess.run(command + passthrough, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
