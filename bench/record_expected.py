"""Write ``bench/expected.json``: the outputs the benchmark gate accepts.

Run once, from the repository root, on the commit whose outputs are the
reference:

    python3 bench/record_expected.py

For every item of every workload it records the exit code, the per-stage
verdicts and the seed-normalized sha256 of the JSON report.  Because the
reduced row echelon form is unique, a correct change to the exact kernels
never moves these values, so they are not re-recorded for speed work.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    cli = run.load_cli()
    expected = {
        workload: {
            run.item_key(argv): run.observed(run.run_item(cli, argv, seed=0))
            for argv in items
        }
        for workload, items in run.WORKLOADS.items()
    }
    with open(run.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
