"""Snapshot every command-line run of the shipped problems, for byte comparison.

Usage, from any directory:

    python3 tests/snapshot_runs.py OUTDIR

Runs each of the six commands on the ten problems/*.json and the three
bench/problems/*.json under four flag sets (312 runs), in-process through
lieweights.cli.main, with the lieweights package of this checkout.  For
each run it writes OUTDIR/<command>__<dir>_<problem>__<flags> with the
suffixes .stdout, .stderr, .json (the --json report bytes, when one was
written) and .exit (the exit code, or the exception a run raised).

It also runs check with --degree-bound 7 on those 13 problems (13 runs),
a cap whose bracket-compat walk has rungs between 0 and the cap.

Only singular_chart.json among the shipped problems has a rational
weighted chart, so it also writes 24 problems from
tests/corpus.py:pushed_forward_model (rng seed 20261, the first 12 models,
N = {a = b = c = 0} at t = 1 and at t = 2, fields printed with
format_vector_field) to OUTDIR/pushed_forward/, and runs coords and report
on each at default flags (48 more runs).  Most of their charts have the
denominator t or 1 + t, so the printed coordinates include rational
functions.

Then it writes the free nilpotent problems (2,3), (2,4) and (3,3) of
tests/corpus.py:free_nilpotent_problem to OUTDIR/free_nilpotent/ and
runs check and report on each at default flags (6 more runs), and the
Grushin-type problems of tests/corpus.py:grushin_problem for k = 1..4,
with N the origin and with N the x-axis at x = 1, to OUTDIR/grushin/,
and runs report on each at default flags (8 more runs).  Then it writes
free nilpotent (2,3) times R^2 and filiform_problem(5) times R^1 of
tests/corpus.py:times_space, N the t-space at t = 0 and at
t = (1, -1/2)[:k], to OUTDIR/times_space/, and runs report on each at
default flags (4 more runs, 391 in all): N has positive dimension there.

Last, a library section covers what the command line never prints.  For
heisenberg, example1, example2, engel4 and cartan235 of problems/, free
nilpotent (2,4), (3,3) and (2,5), filiform_problem(7) and the Grushin-type
problems k = 2 and 3 at the origin and along the x-axis at x = 1 (13
inputs; the two on the x-axis build an osculating algebra at a point off
the origin), it builds the osculating algebra and its tangent subalgebra
at bound 2 at the base point, and writes OUTDIR/library/<input>.txt, one
output a line:
graded_dims, the structure constants as sorted [u, v, k, str(c)], the
candidate classes, the tangent spans, axioms_ok() and two bch products of
seeded random elements.  Each element, class and span row is written as
its sorted nonzero entries [k, str(c)], read from its {index: value}
map.  Then, at the same bound, it writes what bracket-compat and the
tangent subalgebra decide on the way: the certificate of each passing
check_bracket_compat pair, as [i, j, gi, gj, coefficients] with each
coefficient printed by format_poly; each depth's tangency_solve basis,
printed the same way; and, when the submanifold is clean, the ambient
fiber class (weighted_fiber_class) of each tangent-span representative,
as [depth, entries].  Last, it writes graded_dims, the structure
constants and the candidate classes of the osculating algebra at the
base point at bounds 0, 1, 3 and 4 too, as bound<b>_graded_dims and so
on, so a change to the osculating span shows at every bound.  A class's
entries are its sorted nonzero [[position, multi-index], str(value)], read
from its {label: value} map.

Then a jets section moves jets on rational weighted charts, which no run
above does: for the first 6 models of the pushed-forward section, at t = 1
and at t = 2 (12 charts), it draws 5 jets from random.Random(2029) as
jets._sample_by_moving draws them, moves each by its group elements with
u_exp_act, and writes OUTDIR/jets/model<k>_t<t>.txt, one moved jet a
line: its components and eval_jet of every weighted coordinate on it, as
strings (60 moved jets).

Two checkouts give the same behaviour when `diff -r` finds no difference
between their output directories:

    python3 tests/snapshot_runs.py /tmp/before   # in the old checkout
    python3 tests/snapshot_runs.py /tmp/after    # in the new one
    diff -r /tmp/before /tmp/after

Problem paths are passed relative to the checkout's root (the generated
ones relative to OUTDIR), so messages that name a file read the same in
both.  The file name does not start with test_, so pytest does not
collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from corpus import (  # noqa: E402
    filiform_problem,
    free_nilpotent_problem,
    grushin_problem,
    pushed_forward_model,
    times_space,
)
from lieweights.cli import COMMAND_STAGES, load_problem, main  # noqa: E402
from lieweights.jets import (  # noqa: E402
    _random_element,
    _random_tangent_jet,
    eval_jet,
    u_exp_act,
)
from lieweights.lieflt import (  # noqa: E402
    PASS,
    Submanifold,
    check_bracket_compat,
    check_clean,
    tangency_solve,
)
from lieweights.osculating import (  # noqa: E402
    bch,
    osculating_at,
    tangent_subalg,
    weighted_fiber_class,
)
from lieweights.vfield import format_poly, format_vector_field  # noqa: E402
from lieweights.weightcoord import weighted_coordinates  # noqa: E402

PROBLEM_DIRS = ("problems", "bench/problems")
FLAG_SETS = {
    "default": [],
    "samples500-seed101": ["--samples", "500", "--seed", "101"],
    "samples200-seed7": ["--samples", "200", "--seed", "7"],
    "bound1": ["--degree-bound", "1"],
}
HIGH_BOUND_FLAGS = ["--degree-bound", "7"]
PUSHED_FORWARD_SEED = 20261
PUSHED_FORWARD_MODELS = 12
PUSHED_FORWARD_BASES = (1, 2)
PUSHED_FORWARD_COMMANDS = ("coords", "report")
FREE_NILPOTENT = ((2, 3), (2, 4), (3, 3))
FREE_NILPOTENT_COMMANDS = ("check", "report")
GRUSHIN = tuple((k, base) for k in (1, 2, 3, 4) for base in (None, 1))
GRUSHIN_COMMANDS = ("report",)
T_POINT = (1, Fraction(-1, 2))
TIMES_SPACE = {
    f"{name}_x{k}_{label}": (doc, k, base)
    for name, doc, k in (
        ("free_2_3", free_nilpotent_problem(2, 3), 2),
        ("filiform_5", filiform_problem(5), 1),
    )
    for label, base in (("t0", (0,) * k), ("t1", T_POINT[:k]))
}
TIMES_SPACE_COMMANDS = ("report",)
LIBRARY_PROBLEMS = ("heisenberg", "example1", "example2", "engel4", "cartan235")
LIBRARY_DOCS = {
    "free_2_4": free_nilpotent_problem(2, 4),
    "free_3_3": free_nilpotent_problem(3, 3),
    "free_2_5": free_nilpotent_problem(2, 5),
    "filiform_7": filiform_problem(7),
    "grushin_2_origin": grushin_problem(2, None),
    "grushin_2_x1": grushin_problem(2, 1),
    "grushin_3_origin": grushin_problem(3, None),
    "grushin_3_x1": grushin_problem(3, 1),
}
JETS_MODELS = 6
JETS_SAMPLES = 5
JETS_SEED = 2029
LIBRARY_BOUND = 2
LIBRARY_OTHER_BOUNDS = (0, 1, 3, 4)
LIBRARY_SEED = 2028
LIBRARY_POOL = tuple(Fraction(n, d) for n in (-2, -1, 1, 2) for d in (1, 3))


def problem_files() -> list[str]:
    return [
        str(path.relative_to(ROOT))
        for directory in PROBLEM_DIRS
        for path in sorted((ROOT / directory).glob("*.json"))
    ]


def pushed_forward_files(outdir: Path) -> list[str]:
    """Write the pushed-forward problems under outdir; their paths relative
    to outdir."""
    rng = random.Random(PUSHED_FORWARD_SEED)
    models = [pushed_forward_model(rng) for _ in range(PUSHED_FORWARD_MODELS)]
    (outdir / "pushed_forward").mkdir(exist_ok=True)
    paths = []
    for k, filt in enumerate(models):
        for t in PUSHED_FORWARD_BASES:
            doc = {
                "variables": list(filt.chart.names),
                "order": filt.order,
                "filtration": {
                    str(-d): [format_vector_field(f) for f in level]
                    for d, level in enumerate(filt.levels, start=1)
                },
                "submanifold": {"tangent": ["t"], "base_point": [str(t), "0", "0", "0"]},
            }
            path = f"pushed_forward/model{k:02d}_t{t}.json"
            (outdir / path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            paths.append(path)
    return paths


def free_nilpotent_files(outdir: Path) -> list[str]:
    """Write the free nilpotent problems under outdir; their paths relative
    to outdir."""
    (outdir / "free_nilpotent").mkdir(exist_ok=True)
    paths = []
    for letters, step in FREE_NILPOTENT:
        path = f"free_nilpotent/free_{letters}_{step}.json"
        doc = free_nilpotent_problem(letters, step)
        (outdir / path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def grushin_files(outdir: Path) -> list[str]:
    """Write the Grushin-type problems under outdir; their paths relative
    to outdir."""
    (outdir / "grushin").mkdir(exist_ok=True)
    paths = []
    for k, base in GRUSHIN:
        path = f"grushin/grushin_{k}_{'origin' if base is None else f'x{base}'}.json"
        doc = grushin_problem(k, base)
        (outdir / path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def times_space_files(outdir: Path) -> list[str]:
    """Write the model x R^k problems under outdir; their paths relative
    to outdir."""
    (outdir / "times_space").mkdir(exist_ok=True)
    paths = []
    for stem, (doc, k, base) in TIMES_SPACE.items():
        path = f"times_space/{stem}.json"
        text = json.dumps(times_space(doc, k, base), indent=2) + "\n"
        (outdir / path).write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def run(command: str, problem: str, flags: list[str], base: Path) -> None:
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


def entries(vec: dict) -> list[list]:
    """The nonzero entries [k, str(c)] of a map, sorted."""
    return [[k, str(c)] for k, c in sorted(vec.items()) if c]


def fiber_class(field, weighting, depth) -> list | None:
    """The field's ambient fiber class as sorted [[position, multi-index],
    str(value)] entries."""
    cls = weighted_fiber_class(field, weighting, depth)
    if cls is None:
        return None
    return [[[p, list(s)], str(c)] for (p, s), c in sorted(cls.items()) if c]


def algebra_outputs(algebra, prefix: str) -> dict:
    """graded_dims, the structure constants as sorted [u, v, k, str(c)] and
    the candidate classes, each key with the prefix."""
    pairs = sorted(algebra.structure.items())
    return {
        f"{prefix}graded_dims": list(algebra.graded_dims()),
        f"{prefix}structure_constants": [
            [u, v, k, c] for (u, v), vec in pairs for k, c in entries(vec)
        ],
        f"{prefix}candidate_classes": [
            [entries(cls) for cls in level] for level in algebra.candidate_classes
        ],
    }


def library_outputs(path: Path) -> dict:
    spec = load_problem(str(path))
    filt, sub = spec.filtration, spec.submanifold
    chart = filt.chart
    order = filt.order
    bracket_compat = [
        [c.i, c.j, c.gi, c.gj, [format_poly(u, chart) for u in c.result.certificate]]
        for c in check_bracket_compat(filt, LIBRARY_BOUND).checks
        if c.result.verdict == PASS
    ]
    prefixes = [len(filt.generators(depth)) for depth in range(1, order + 1)]
    tangency = [
        [[format_poly(u, chart) for u in combo] for combo in basis]
        for basis in tangency_solve(filt.generators(order), sub, LIBRARY_BOUND, prefixes)
    ]
    algebra = osculating_at(filt, sub.base_point, LIBRARY_BOUND)
    tangent = tangent_subalg(filt, sub, LIBRARY_BOUND, parent=algebra)
    rng = random.Random(LIBRARY_SEED)
    products = []
    for _ in range(2):
        args = [
            {w: rng.choice(LIBRARY_POOL) for w in range(algebra.dim) if rng.random() < 0.6}
            for _ in range(2)
        ]
        products.append([entries(x) for x in (*args, bch(algebra, *args))])
    clean = check_clean(filt, sub)
    weighting = weighted_coordinates(clean) if clean.verdict == PASS else None
    fiber_classes = []
    for depth, span in enumerate(tangent.spans, start=1):
        for row in span if weighting else ():
            rep = None
            for u, value in sorted(row.items()):
                term = algebra.representatives[u].scale(value)
                rep = term if rep is None else rep + term
            fiber_classes.append([depth, fiber_class(rep, weighting, depth)])
    outputs = {
        **algebra_outputs(algebra, ""),
        "tangent_spans": [[entries(row) for row in span] for span in tangent.spans],
        "axioms_ok": algebra.axioms_ok(),
        "bch_x_y_product": products,
        "bracket_compat_certificates": bracket_compat,
        "tangency_bases": tangency,
        "tangent_fiber_classes": fiber_classes,
    }
    for bound in LIBRARY_OTHER_BOUNDS:
        other = osculating_at(filt, sub.base_point, bound)
        outputs.update(algebra_outputs(other, f"bound{bound}_"))
    return outputs


def library_snapshot(outdir: Path) -> int:
    """Write the library section under outdir/library; the inputs written."""
    (outdir / "library").mkdir(exist_ok=True)
    paths = {name: ROOT / "problems" / f"{name}.json" for name in LIBRARY_PROBLEMS}
    for name, doc in LIBRARY_DOCS.items():
        paths[name] = outdir / "library" / f"{name}.problem.json"
        paths[name].write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for name, path in paths.items():
        outputs = library_outputs(path)
        text = "".join(f"{key}: {json.dumps(value)}\n" for key, value in outputs.items())
        (outdir / "library" / f"{name}.txt").write_text(text, encoding="utf-8")
    return len(paths)


def jets_snapshot(outdir: Path) -> int:
    """Write the jets section under outdir/jets; the jets moved."""
    (outdir / "jets").mkdir(exist_ok=True)
    rng = random.Random(PUSHED_FORWARD_SEED)
    models = [pushed_forward_model(rng) for _ in range(JETS_MODELS)]
    moved = 0
    for k, filt in enumerate(models):
        for t in PUSHED_FORWARD_BASES:
            sub = Submanifold(filt.chart, (0,), (t, 0, 0, 0))
            weighting = weighted_coordinates(check_clean(filt, sub))
            draw = random.Random(JETS_SEED)
            lines = []
            for _ in range(JETS_SAMPLES):
                # drawn and moved as jets._sample_by_moving does it
                u = _random_tangent_jet(draw, sub, filt.order)
                for _ in range(draw.randrange(1, 4)):
                    elem = _random_element(draw, filt)
                    if elem is not None:
                        u = u_exp_act(elem, u)
                # an older eval_jet returns a series with .coefficients
                values = [eval_jet(u, f) for f in weighting.forward]
                values = [getattr(v, "coefficients", v) for v in values]
                outputs = {
                    "components": [[str(c) for c in row] for row in u.comps],
                    "values": [[str(c) for c in value] for value in values],
                }
                lines.append(json.dumps(outputs) + "\n")
                moved += 1
            (outdir / "jets" / f"model{k:02d}_t{t}.txt").write_text("".join(lines))
    return moved


def snapshot(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    runs = 0
    os.chdir(ROOT)
    for command in sorted(COMMAND_STAGES):
        for problem in problem_files():
            for label, flags in FLAG_SETS.items():
                stem = Path(problem).with_suffix("").as_posix().replace("/", "_")
                run(command, problem, flags, outdir / f"{command}__{stem}__{label}")
                runs += 1
    for problem in problem_files():
        stem = Path(problem).with_suffix("").as_posix().replace("/", "_")
        run("check", problem, HIGH_BOUND_FLAGS, outdir / f"check__{stem}__bound7")
        runs += 1
    os.chdir(outdir)
    generated = [
        (PUSHED_FORWARD_COMMANDS, pushed_forward_files(outdir)),
        (FREE_NILPOTENT_COMMANDS, free_nilpotent_files(outdir)),
        (GRUSHIN_COMMANDS, grushin_files(outdir)),
        (TIMES_SPACE_COMMANDS, times_space_files(outdir)),
    ]
    for commands, problems in generated:
        for command in commands:
            for problem in problems:
                stem = Path(problem).with_suffix("").as_posix().replace("/", "_")
                run(command, problem, [], outdir / f"{command}__{stem}__default")
                runs += 1
    return runs


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    target = Path(sys.argv[1]).resolve()
    print(f"{snapshot(target)} runs written to {target}")
    print(f"{library_snapshot(target)} library inputs written to {target / 'library'}")
    print(f"{jets_snapshot(target)} moved jets written to {target / 'jets'}")
