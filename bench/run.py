"""Benchmark for the ``lieweights`` batch command line.

Run from the repository root:

    python3 bench/run.py --workload solve-heavy --seed 1 --seconds 30 --trace 0

A workload is a fixed list of command lines.  One pass runs each of them
through ``lieweights.cli.main`` in this process, one after the other, with
``--seed <seed> --json <file>`` appended; the workload seed reaches the
program only as ``--seed``.  Passes repeat while another one still fits in
``--seconds``; at least one always runs.  Every item of every pass is
checked against ``bench/expected.json``: exit code, per-stage verdicts and
the sha256 of the JSON report, with the echoed seed written as 0.

``--trace 0`` prints the end-to-end metrics:

- ``pass_s``: median seconds of one pass over the items, at the reference
  CPU speed (see ``SpeedProbe``);
- ``setup_s``: median, over fresh interpreters, of the seconds to import
  ``lieweights.cli`` and ``load_problem`` every item, at the reference
  CPU speed;
- ``peak_rss_mb``: peak resident memory of this process after the passes;
- ``ok_frac``: share of items whose outputs match the expected ones.

``--trace 1`` runs one pass with tracing off, then one pass with the tracer
of ``bench/tracing.py`` installed, and prints the per-layer metrics; the
spans go to ``.bench_out/``.  Span times are raw wall seconds and include
the speed probe's own share, about 1%.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give each metric with its unit, quartiles and sample count, the raw
wall seconds, and a stamp (commit, Python version, CPUs, load average).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

WORKLOADS = {
    # Cartan (2,3,5) at bound 3: dense exact solves in bracket-compat and
    # osculating, every membership passes
    "solve-heavy": [
        ["report", "bench/problems/cartan235.json", "--degree-bound", "3"],
    ],
    # jet exponentials and Poly/TruncSeries arithmetic; few, small solves
    "jets-sampling": [
        ["report", "problems/example1.json", "--samples", "500"],
        ["report", "problems/example2.json", "--samples", "500"],
        ["report", "problems/heisenberg.json", "--samples", "500"],
        ["report", "bench/problems/engel4.json", "--samples", "500"],
    ],
    # membership on its fail path: infeasible solve, then a pointwise witness
    "fail-witness": [
        ["check", "problems/broken.json"],
        ["check", "bench/problems/engel4_broken.json"],
    ],
}

SETUP_STARTS = 15
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import lieweights.cli
for path in sys.argv[3:]:
    lieweights.cli.load_problem(path)
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from run import probe_seconds
print(elapsed, probe_seconds())
"""

PROBE_INTERVAL_S = 0.05
# seconds the probe kernel takes at the reference speed; pass_s is scaled
# so that a pass at that speed reports its wall seconds
PROBE_REFERENCE_S = 0.0005


class BenchError(RuntimeError):
    pass


def _probe_kernel() -> None:
    a = Fraction(1, 3)
    for i in range(1, 80):
        a = a * Fraction(i + 1, i) - Fraction(1, i + 7)


def probe_seconds(repeats: int = 9) -> float:
    """Median seconds of the probe kernel, right now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _probe_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Times code in seconds at a fixed reference CPU speed.

    On a shared machine the speed of one core drifts by a quarter within
    seconds, so raw wall time of the same pass spreads by 20-35% from run
    to run.  While the measured code runs, a timer signal every
    ``PROBE_INTERVAL_S`` runs a small fixed ``Fraction`` kernel and times
    it.  Each stretch of program time between two probes is scaled by
    ``PROBE_REFERENCE_S`` over the kernel time around it, and the stretches
    are summed.  The probes' own time is left out of both figures.
    """

    def _sample(self, *_signal_args) -> None:
        entry = time.perf_counter()
        _probe_kernel()
        self.samples.append((entry, time.perf_counter()))

    def run(self, fn):
        """Call ``fn()``; returns (its result, raw seconds, reference seconds)."""
        self.samples: list[tuple[float, float]] = []  # (entry, exit)
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._sample()
            signal.signal(signal.SIGALRM, previous)
        raw = scaled = 0.0
        for (a_in, a_out), (b_in, b_out) in zip(self.samples, self.samples[1:]):
            stretch = b_in - a_out
            speed = 0.5 * (1 / (a_out - a_in) + 1 / (b_out - b_in))
            raw += stretch
            scaled += stretch * speed * PROBE_REFERENCE_S
        return result, raw, scaled


def item_key(argv: list[str]) -> str:
    return " ".join(argv)


def report_digest(data: bytes, seed: int) -> str:
    """sha256 of a JSON report, with its echoed seed written as 0.

    A report that echoes any other seed than the one passed gets a digest
    that matches nothing.
    """
    echoed = re.findall(rb'"seed": (-?\d+)', data)
    if any(int(s) != seed for s in echoed):
        return "seed-mismatch"
    return hashlib.sha256(re.sub(rb'"seed": -?\d+', b'"seed": 0', data)).hexdigest()


def load_cli():
    """Import ``lieweights.cli`` from this checkout's ``src``, or fail."""
    if not os.path.isfile(os.path.join(SRC, "lieweights", "cli.py")):
        raise BenchError(f"no lieweights sources under {SRC}")
    sys.path.insert(0, SRC)
    import lieweights.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported lieweights from {cli.__file__}, not {SRC}")
    return cli


def run_item(cli, argv: list[str], seed: int) -> dict:
    """One ``cli.main`` call; returns its times and its observed outputs."""
    os.makedirs(OUT_DIR, exist_ok=True)
    report = os.path.join(OUT_DIR, "report.json")
    if os.path.exists(report):
        os.remove(report)
    full = [os.path.join(ROOT, a) if a.endswith(".json") else a for a in argv]
    full += ["--seed", str(seed), "--json", report]
    with contextlib.redirect_stdout(io.StringIO()):
        code, raw, scaled = SpeedProbe().run(lambda: cli.main(full))
    with open(report, "rb") as handle:
        data = handle.read()
    stages = json.loads(data)["stages"]
    return {
        "raw_s": raw,
        "scaled_s": scaled,
        "exit": code,
        "verdicts": [[s["name"], s["verdict"]] for s in stages],
        "digest": report_digest(data, seed),
    }


def observed(result: dict) -> dict:
    return {k: result[k] for k in ("exit", "verdicts", "digest")}


def run_pass(cli, items, seed: int, expected: dict) -> tuple[float, float, int]:
    """Run every item once; returns (raw seconds, reference seconds, failed).

    An item fails if it raises, exits 3 or differs from ``expected``.
    """
    raw = scaled = 0.0
    failed = 0
    for argv in items:
        key = item_key(argv)
        try:
            result = run_item(cli, argv, seed)
        except Exception:  # a crash is a failed item, not a crashed bench
            print(f"FAIL {key}:", file=sys.stderr)
            traceback.print_exc()
            failed += 1
            continue
        raw += result["raw_s"]
        scaled += result["scaled_s"]
        want = expected[key]
        if result["exit"] == 3 or observed(result) != want:
            print(f"FAIL {key}: got {observed(result)}, want {want}", file=sys.stderr)
            failed += 1
        gc.collect()
    return raw, scaled, failed


def measure_setup(items) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh interpreters: raw, and at the reference speed
    given by the probe kernel timed in the same interpreter right after."""
    paths = sorted({os.path.join(ROOT, a) for argv in items for a in argv if a.endswith(".json")})
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, SRC, BENCH_DIR, *paths]
    raw, scaled = [], []
    for _ in range(SETUP_STARTS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()}")
        elapsed, probe = map(float, proc.stdout.split())
        raw.append(elapsed)
        scaled.append(elapsed * PROBE_REFERENCE_S / probe)
    return raw, scaled


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        proc = subprocess.run(
            ["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp() -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def describe(name: str, samples: list[float], unit: str) -> str:
    """'name median unit' plus quartiles and the sample count."""
    med = statistics.median(samples)
    line = f"{name:<52} {med:.6g} {unit}"
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        line += f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples)})"
    else:
        line += "  (n=1)"
    return line


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    items = WORKLOADS[workload]
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)[workload]
    missing = [item_key(a) for a in items if item_key(a) not in expected]
    if missing:
        raise BenchError(f"no expected outputs for {missing}")
    cli = load_cli()
    print(json.dumps({"stamp": stamp(), "workload": workload, "seed": seed}))

    raw_passes: list[float] = []
    passes: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        raw, scaled, bad = run_pass(cli, items, seed, expected)
        raw_passes.append(raw)
        passes.append(scaled)
        attempted += len(items)
        failed += bad
        elapsed = time.perf_counter() - start
        if trace or elapsed + statistics.median(raw_passes) > seconds:
            break
    pass_s = statistics.median(passes)
    print(describe("pass_s", passes, "s"))
    print(describe("pass wall seconds", raw_passes, "s"))
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} items)")

    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_raw, setup = measure_setup(items)
        print(describe("setup_s", setup, "s"))
        print(describe("setup wall seconds", setup_raw, "s"))
        print(describe("peak_rss_mb", [peak_rss_mb], "MB"))
        metrics["pass_s"] = (pass_s, "s")
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["ok_frac"] = (1 - failed / attempted, "ratio")
    else:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced_raw, traced_s, bad = run_pass(cli, items, seed, expected)
        finally:
            tracer.uninstall()
        attempted += len(items)
        failed += bad
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl"))
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_frac"] = (traced_s / pass_s - 1, "ratio")
        print(f"traced pass {traced_s:.6g} s, wall {traced_raw:.6g} s, {len(tracer.spans)} spans")
        for name, (value, unit) in metrics.items():
            print(f"{name:<52} {value:.6g} {unit}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    if {(m["name"], m["unit"]) for m in declared} != {
        (name, unit) for name, (_, unit) in metrics.items()
    }:
        raise BenchError("metrics differ from those declared in BENCHMARK.json")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
