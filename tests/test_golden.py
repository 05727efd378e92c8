"""Golden `report --json` bytes for the shipped problems.

The files under ``tests/golden/`` were written by

    python3 -m lieweights.cli report problems/NAME.json --json tests/golden/NAME.json --quiet

and must only change together with an intended change of output.  Exact
elimination has a unique reduced row echelon form, so a change of kernel
strategy alone never justifies new golden bytes.
"""

from pathlib import Path

import pytest

from lieweights.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = {
    "example1": EXIT_PASS,
    "example2": EXIT_PASS,
    "heisenberg": EXIT_PASS,
    "broken": EXIT_FAIL,
    "cartan235": EXIT_PASS,
    "engel4": EXIT_PASS,
    "engel4_broken": EXIT_FAIL,
    "graded135": EXIT_PASS,
    "singular_chart": EXIT_INCONCLUSIVE,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_bytes(name, tmp_path):
    out = tmp_path / f"{name}.json"
    code = main(
        ["report", str(ROOT / "problems" / f"{name}.json"), "--json", str(out), "--quiet"]
    )
    assert code == CASES[name]
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
