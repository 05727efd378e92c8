"""Snapshot every command-line run of the shipped problems, for byte comparison.

Usage, from any directory:

    python3 tests/snapshot_runs.py OUTDIR

Runs each of the six commands on the ten problems/*.json and the three
bench/problems/*.json under four flag sets (312 runs), in-process through
lieweights.cli.main, with the lieweights package of this checkout.  For
each run it writes OUTDIR/<command>__<dir>_<problem>__<flags> with the
suffixes .stdout, .stderr, .json (the --json report bytes, when one was
written) and .exit (the exit code, or the exception a run raised).  Two
checkouts give the same behaviour when `diff -r` finds no difference
between their output directories:

    python3 tests/snapshot_runs.py /tmp/before   # in the old checkout
    python3 tests/snapshot_runs.py /tmp/after    # in the new one
    diff -r /tmp/before /tmp/after

Problem paths are passed relative to the checkout's root, so messages
that name a file read the same in both.  The file name does not start
with test_, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lieweights.cli import COMMAND_STAGES, main  # noqa: E402

PROBLEM_DIRS = ("problems", "bench/problems")
FLAG_SETS = {
    "default": [],
    "samples500-seed101": ["--samples", "500", "--seed", "101"],
    "samples200-seed7": ["--samples", "200", "--seed", "7"],
    "bound1": ["--degree-bound", "1"],
}


def problem_files() -> list[str]:
    return [
        str(path.relative_to(ROOT))
        for directory in PROBLEM_DIRS
        for path in sorted((ROOT / directory).glob("*.json"))
    ]


def snapshot(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    runs = 0
    for command in sorted(COMMAND_STAGES):
        for problem in problem_files():
            for label, flags in FLAG_SETS.items():
                stem = Path(problem).with_suffix("").as_posix().replace("/", "_")
                base = outdir / f"{command}__{stem}__{label}"
                json_path = base.with_suffix(".json")
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = str(main([command, problem, "--json", str(json_path), *flags]))
                    except Exception as exc:  # recorded, so a crash is a difference too
                        code = f"raised {type(exc).__name__}: {exc}"
                base.with_suffix(".stdout").write_text(out.getvalue(), encoding="utf-8")
                base.with_suffix(".stderr").write_text(err.getvalue(), encoding="utf-8")
                base.with_suffix(".exit").write_text(code + "\n", encoding="utf-8")
                runs += 1
    return runs


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    target = Path(sys.argv[1]).resolve()
    os.chdir(ROOT)
    print(f"{snapshot(target)} runs written to {target}")
