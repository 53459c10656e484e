#!/usr/bin/env python3
"""End-to-end smoke test for `alem_cli session save` / `session resume`.

Runs the golden linear-margin workload three ways in separate processes:

  1. uninterrupted:  alem_cli run            --report=fresh.json
  2. first half:     alem_cli session save   --stop-after=2 --snapshot=s.alss
  3. second half:    alem_cli session resume --snapshot=s.alss (4 threads)
                                             --report=resumed.json

and requires `alem_report check --exact-curve --counter-tol=0` to pass in
both directions: every deterministic curve field and every counter must
match exactly (a counter on only one side fails one direction), and both
reports must pass the single-report validator. Timing fields are
wall-clock and excluded (docs/sessions.md). Also checks the resumed
report's session provenance and that a corrupted snapshot is rejected
with a clean error.

Usage: session_smoke.py --cli PATH_TO_ALEM_CLI
(alem_report is taken from the directory that holds alem_cli.)
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOAD = [
    "--dataset=Abt-Buy",
    "--approach=linear-margin",
    "--scale=0.25",
    "--max-labels=60",
    "--no-cache",
    "--quiet",
]


def run(cmd, expect_failure=False):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if expect_failure:
        if proc.returncode == 0:
            sys.exit(f"FAIL: expected failure from {' '.join(map(str, cmd))}")
        return proc
    if proc.returncode != 0:
        sys.exit(
            f"FAIL: {' '.join(map(str, cmd))} exited {proc.returncode}\n"
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )
    return proc


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--cli", required=True, help="path to alem_cli")
    args = parser.parse_args()
    cli = Path(args.cli)
    alem_report = cli.with_name("alem_report")

    with tempfile.TemporaryDirectory(prefix="alem_session_smoke_") as tmp:
        tmp = Path(tmp)
        snapshot = tmp / "session.alss"
        fresh_path = tmp / "fresh.report.json"
        resumed_path = tmp / "resumed.report.json"

        run([cli, "run", *WORKLOAD, "--threads=1",
             f"--report={fresh_path}"])
        run([cli, "session", "save", *WORKLOAD, "--threads=1",
             "--stop-after=2", f"--snapshot={snapshot}"])
        if not snapshot.exists():
            sys.exit("FAIL: session save wrote no snapshot")
        proc = run([cli, "session", "resume", f"--snapshot={snapshot}",
                    "--threads=4", "--no-cache",
                    f"--report={resumed_path}"])
        if "resume #1" not in proc.stdout:
            sys.exit(f"FAIL: resume banner missing:\n{proc.stdout}")

        fresh = json.loads(fresh_path.read_text())
        resumed = json.loads(resumed_path.read_text())

        if fresh["config"]["session"] != "fresh":
            sys.exit("FAIL: fresh report not stamped session=fresh")
        if resumed["config"]["session"] != "resumed":
            sys.exit("FAIL: resumed report not stamped session=resumed")
        if resumed["config"]["session_resumes"] != 1:
            sys.exit("FAIL: resumed report session_resumes != 1")

        for baseline, candidate in ((fresh_path, resumed_path),
                                    (resumed_path, fresh_path)):
            run([alem_report, "check", baseline, candidate, "--exact-curve",
                 "--counter-tol=0"])

        # A corrupted snapshot must be rejected with a clean error.
        blob = bytearray(snapshot.read_bytes())
        blob[len(blob) // 2] ^= 0x5A
        corrupt = tmp / "corrupt.alss"
        corrupt.write_bytes(bytes(blob))
        proc = run([cli, "session", "resume", f"--snapshot={corrupt}"],
                   expect_failure=True)
        if "checksum" not in proc.stderr:
            sys.exit(f"FAIL: corrupt snapshot error not clean:\n{proc.stderr}")

    print("session smoke test OK: curve + counters stitch exactly, "
          "provenance stamped, corruption rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
