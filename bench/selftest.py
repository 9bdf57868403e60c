#!/usr/bin/env python3
"""Fast self-test of the benchmark harness: `python3 bench/selftest.py`.

For each workload it makes two traced runs with the same seed on one cycle of
operations, each in a fresh process, and asserts that no operation failed,
that every answer check passed, that the work counters and answer digests of
the two runs are identical, and that the traced answers equal the untraced
ones.  It also checks that the harness refuses to run, with a non-zero exit
and no result line, where the realdp sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 11


def traced_run(workload):
    """A traced run of one cycle of operations: `--seconds 0` rounds to one."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split()[3] for line in lines if line.startswith("# answer digest "))
    untraced = next(line.split()[-1].rstrip(")") for line in lines if line.startswith("# answer digest "))
    counters = json.loads(next(line for line in lines if line.startswith("# work counters "))[len("# work counters "):])
    return result, digest, untraced, counters, lines


def main():
    failures = []
    for name in ("classify", "hyperbolicity", "conic_sections"):
        runs = [traced_run(name) for _ in range(2)]
        (first, digest, untraced, counters, lines), (second, digest2, _, counters2, _) = runs
        checks = {
            "every answer check passed": first["correct"] and second["correct"],
            "fail_ratio is 0": first["failed"] == 0 and second["failed"] == 0,
            "traced answers equal untraced answers": digest == untraced,
            "answer digests repeat": digest == digest2,
            "work counters repeat": counters == counters2,
        }
        for label, ok in checks.items():
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {label}")
            if not ok:
                failures.append(f"{name}: {label}")
        if not first["correct"]:
            print("\n".join(line for line in lines if "FAILED" in line))

    # A directory holding only BENCHMARK.json and the benchmark: no sources.
    bare = Path(tempfile.mkdtemp(prefix=".bench_tmp_selftest_", dir=ROOT))
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "classify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    print(f"{'ok  ' if ok else 'FAIL'} refuses to run without the realdp sources (exit {proc.returncode})")
    if not ok:
        failures.append("runs without sources")

    print("self-test " + ("passed" if not failures else f"FAILED: {failures}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
