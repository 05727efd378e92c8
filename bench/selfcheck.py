"""Steadiness self-check: two runs with the same seed must agree.

Run from the repository root:

    python3 bench/selfcheck.py --workload fail-witness --seed 1

It runs ``bench/run.py`` twice with ``--trace 0`` and twice with
``--trace 1``, one after the other.  The exact counters of the traced runs
(call counts, matrix cells, infeasible solves, membership verdicts,
``Poly`` constructions) must be identical, and each end-to-end metric of
the second untraced run must be within its ``BENCHMARK.json`` bound of the
first, in either direction.  Exits 1 if anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run

EXACT_SUFFIXES = (".calls", ".cells", ".infeasible", ".pass", ".fail", ".inconclusive", ".validated")


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        os.path.join(run.BENCH_DIR, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"run.py failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"run.py reported incorrect outputs:\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]

    ok = True
    first, second = (bench_once(args.workload, args.seed, seconds, 0) for _ in range(2))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = first[name], second[name]
        drift = abs(a - b) / min(a, b)
        good = drift <= bound
        ok &= good
        print(f"{name:<28} {a:.6g} {b:.6g}  drift {drift:.3f} (bound {bound}) {'ok' if good else 'DRIFT'}")

    first, second = (bench_once(args.workload, args.seed, seconds, 1) for _ in range(2))
    for name in first:
        if name.endswith(EXACT_SUFFIXES):
            good = first[name] == second[name]
            ok &= good
            print(f"{name:<56} {first[name]} {second[name]} {'ok' if good else 'DIFFERS'}")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
