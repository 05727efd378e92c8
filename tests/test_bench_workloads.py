"""Every benchmark item gives its recorded outputs.

bench/run.py runs the command lines of its WORKLOADS through
``lieweights.cli.main`` and checks each against bench/expected.json: exit
code, per-stage verdicts and the sha256 of the JSON report with the echoed
seed written as 0.  This runs every item once with seed 101 and makes the
same comparison, so that a report byte that moves fails here too.
"""

import ast
import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from lieweights.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SEED = 101


def _workloads() -> dict[str, list[list[str]]]:
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WORKLOADS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no WORKLOADS dict")


ITEMS = [(name, argv) for name, items in _workloads().items() for argv in items]
EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "workload,argv", ITEMS, ids=[f"{w}:{' '.join(a)}" for w, a in ITEMS]
)
def test_bench_item_matches_expected(workload, argv, tmp_path):
    report = tmp_path / "report.json"
    full = [str(ROOT / a) if a.endswith(".json") else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(full + ["--seed", str(SEED), "--json", str(report)])
    data = report.read_bytes()
    # a report echoes the seed only when a stage draws random numbers
    assert all(int(s) == SEED for s in re.findall(rb'"seed": (-?\d+)', data))
    digest = hashlib.sha256(re.sub(rb'"seed": -?\d+', b'"seed": 0', data)).hexdigest()
    stages = json.loads(data)["stages"]
    observed = {
        "exit": code,
        "verdicts": [[s["name"], s["verdict"]] for s in stages],
        "digest": digest,
    }
    assert observed == EXPECTED[workload][" ".join(argv)]
