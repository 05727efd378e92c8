"""Time the report pipeline stage by stage on the scale corpus.

Usage, from any directory:

    python3 tests/scale_rows.py                  # every row but free_3_6
    python3 tests/scale_rows.py free_2_7 free_3_5
    python3 tests/scale_rows.py free_3_6         # about 30 s and 0.5 GB

Each row is a problem document.  Those of tests/corpus.py are the free
nilpotent models (free_nilpotent_problem) free_2_5, free_3_4, free_2_7,
free_4_4, free_3_5 and free_3_6, filiform_10 (filiform_problem), and
free_3_4_x2, free (3,4) times R^2 (times_space) with N the t-plane at
t = (1, -1/2), the one row whose N has positive dimension.  The row
uncertified_500 is problems/uncertified.json with samples 500: its
flow-out certificate fails, so its jets stage is the one that moves and
tests jets (jets._sample_by_moving).  free_3_6 runs only when it is
named.  For each row, in one process, it times
lieweights.cli.load_problem, then each stage method of cli._Pipeline in
report order at default flags, then cli.render_json, and prints one JSON
line: the row's name, its chart dimension n, the process time of each step
in seconds (keys load, the stage names, render and total), each stage's
verdict, the osculating degree bound and the length of the rendered
report in bytes.  Process time is the CPU time of this process, so a
busy host inflates it less than wall time.

The file name does not start with test_, so pytest does not collect it;
tests/test_cli.py runs it on free_2_5.
"""

from __future__ import annotations

import gc
import json
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from corpus import filiform_problem, free_nilpotent_problem, times_space  # noqa: E402
from lieweights.cli import STAGE_ORDER, _Pipeline, load_problem, render_json  # noqa: E402

ROWS = {
    "free_2_5": lambda: free_nilpotent_problem(2, 5),
    "filiform_10": lambda: filiform_problem(10),
    "free_3_4": lambda: free_nilpotent_problem(3, 4),
    "free_2_7": lambda: free_nilpotent_problem(2, 7),
    "free_4_4": lambda: free_nilpotent_problem(4, 4),
    "free_3_5": lambda: free_nilpotent_problem(3, 5),
    "free_3_6": lambda: free_nilpotent_problem(3, 6),
    "free_3_4_x2": lambda: times_space(free_nilpotent_problem(3, 4), 2, (1, Fraction(-1, 2))),
    "uncertified_500": lambda: {
        **json.loads((ROOT / "problems" / "uncertified.json").read_text()),
        "samples": 500,
    },
}
# run only when named on the command line
NAMED_ONLY = {"free_3_6"}


def scale_row(name: str) -> dict:
    """One row: the process time of load, each stage and render."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(ROWS[name]()))
        gc.collect()
        clock = time.process_time
        start = clock()
        spec = load_problem(str(path))
        row: dict = {"input": name, "n": spec.chart.dim, "load": clock() - start}
    pipeline = _Pipeline(spec)
    verdicts = {}
    results = []
    for stage in STAGE_ORDER:
        method = getattr(pipeline, "stage_" + stage.replace("-", "_"))
        start = clock()
        verdict, data = method()
        row[stage] = clock() - start
        verdicts[stage] = verdict
        results.append({"name": stage, "verdict": verdict, "data": data})
    start = clock()
    report = render_json(results)
    row["render"] = clock() - start
    row["total"] = sum(row[key] for key in ("load", *STAGE_ORDER, "render"))
    row["verdicts"] = verdicts
    row["osculating_bound"] = pipeline.osculate_bound()
    row["report_bytes"] = len(report)
    return row


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in ROWS]
    if unknown:
        print(f"unknown rows {unknown}; the rows are {sorted(ROWS)}", file=sys.stderr)
        return 2
    names = argv or [name for name in ROWS if name not in NAMED_ONLY]
    for name in names:
        print(json.dumps(scale_row(name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
