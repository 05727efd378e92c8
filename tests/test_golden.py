"""Golden `report --json` bytes for the shipped problems.

The files under ``tests/golden/`` were written by

    python3 -m lieweights.cli report problems/NAME.json --json tests/golden/NAME.json --quiet

and must only change together with an intended change of output.
``tests/golden/cartan235_check_b7.json`` holds the bytes of

    python3 -m lieweights.cli check bench/problems/cartan235.json --degree-bound 7 --json OUT --quiet

the Cartan default bound, where each level's system has 792 monomials
per generator and the kernel's column index does most of its work.  Exact
elimination has a unique reduced row echelon form, so a change of kernel
strategy alone never justifies new golden bytes.
"""

from pathlib import Path

import pytest

from lieweights.cli import EXIT_FAIL, EXIT_PASS, main

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
    "singular_chart": EXIT_PASS,
    "uncertified": EXIT_FAIL,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_bytes(name, tmp_path):
    out = tmp_path / f"{name}.json"
    code = main(
        ["report", str(ROOT / "problems" / f"{name}.json"), "--json", str(out), "--quiet"]
    )
    assert code == CASES[name]
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_cartan_check_at_bound_seven_matches_golden_bytes(tmp_path):
    out = tmp_path / "cartan235_check_b7.json"
    problem = ROOT / "bench" / "problems" / "cartan235.json"
    code = main(
        ["check", str(problem), "--degree-bound", "7", "--json", str(out), "--quiet"]
    )
    assert code == EXIT_PASS
    assert out.read_bytes() == (GOLDEN / "cartan235_check_b7.json").read_bytes()
