"""Per-layer tracing for the benchmark, installed from outside the program.

Each traced function is replaced, in every ``lieweights`` module that holds
a reference to it, by a wrapper that records a span: name, start, end,
parent span and the module the call came from.  Modules that import a
function by name (``from .exactalg import linear_solve_exact``) get their
own wrapper, which is how calls are attributed to a caller.  Spans are kept
in memory and written out once, after the traced pass.  ``Poly.__init__``
is only counted: it runs far too often for a span per call.

Nothing under ``src/`` knows about this module; ``Tracer.uninstall`` puts
every original function back.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span per call
TRACED = (
    ("exactalg", "linear_solve_exact"),
    ("exactalg", "matrix_rank"),
    ("exactalg", "poly_gcd"),
    ("vfield", "parse_vector_field"),
    ("vfield", "lie_bracket"),
    ("lieflt", "check_bracket_compat"),
    ("lieflt", "module_membership"),
    ("lieflt", "check_clean"),
    ("lieflt", "tangency_solve"),
    ("weightcoord", "weighted_coordinates"),
    ("jets", "flowout_sample"),
    ("jets", "u_exp_act"),
    ("jets", "q_membership"),
    ("osculating", "osculating_at"),
    ("osculating", "tangent_subalg"),
    ("osculating", "verify_hh"),
    ("cli", "load_problem"),
    ("cli", "render_json"),
)

SOLVE = "exactalg.linear_solve_exact"
SOLVE_CALLERS = ("lieflt", "osculating")
MEMBERSHIP = "lieflt.module_membership"
POLY_VALIDATED = "exactalg.Poly.validated"

# span fields, stored as lists for speed
NAME, START, END, PARENT, CALLER, CHILD_S, INFO = range(7)


def _solve_shape(args, kwargs) -> dict:
    rows = args[0] if args else kwargs["rows"]
    cols = len(rows[0]) if rows else 0
    nnz = sum(1 for row in rows for x in row if x)
    return {"rows": len(rows), "cols": cols, "nnz": nnz}


def _solve_result(result, info: dict) -> None:
    info["feasible"] = result is not None


def _membership_result(result, info: dict) -> None:
    info["verdict"] = result.verdict


SHAPE = {SOLVE: _solve_shape}
RESULT = {SOLVE: _solve_result, MEMBERSHIP: _membership_result}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func, caller: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        shape, on_result = SHAPE.get(name), RESULT.get(name)

        def traced(*args, **kwargs):
            info = shape(args, kwargs) if shape else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, caller, 0.0, info]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = end = clock()
                stack.pop()
                if span[PARENT] >= 0:
                    spans[span[PARENT]][CHILD_S] += end - span[START]
            if on_result:
                if info is None:
                    span[INFO] = info = {}
                on_result(result, info)
            return result

        return traced

    def install(self) -> None:
        modules = {
            key.rpartition(".")[2]: mod
            for key, mod in list(sys.modules.items())
            if key == "lieweights" or key.startswith("lieweights.")
        }
        for owner, func_name in TRACED:
            original = getattr(modules[owner], func_name)
            name = f"{owner}.{func_name}"
            for caller, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, self._wrap(name, original, caller))

        poly = modules["exactalg"].Poly
        init = poly.__init__
        counts = self.counts

        def counted_init(self, *args, **kwargs):
            counts[POLY_VALIDATED] += 1
            init(self, *args, **kwargs)

        self._restore.append((poly, "__init__", init))
        poly.__init__ = counted_init

    def uninstall(self) -> None:
        while self._restore:
            target, attr, value = self._restore.pop()
            setattr(target, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": span[PARENT],
                    "caller": span[CALLER],
                }
                if span[INFO]:
                    record.update(span[INFO])
                handle.write(json.dumps(record) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each as (value, unit).

        ``.s`` is the time inside a function, counting a recursive call
        once; ``.self_s`` subtracts the time of the traced calls it made.
        """
        by_name: dict[str, list[list]] = defaultdict(list)
        for span in self.spans:
            by_name[span[NAME]].append(span)

        def total_s(spans) -> float:
            total = 0.0
            for span in spans:
                parent = span[PARENT]
                while parent >= 0 and self.spans[parent][NAME] != span[NAME]:
                    parent = self.spans[parent][PARENT]
                if parent < 0:
                    total += span[END] - span[START]
            return total

        def self_s(spans) -> float:
            return sum(s[END] - s[START] - s[CHILD_S] for s in spans)

        out: dict[str, tuple[float, str]] = {}

        def timed(name: str, spans, fields=("calls", "s")) -> None:
            if "calls" in fields:
                out[f"{name}.calls"] = (len(spans), "count")
            if "s" in fields:
                out[f"{name}.s"] = (total_s(spans), "s")
            if "self_s" in fields:
                out[f"{name}.self_s"] = (self_s(spans), "s")

        def solve_stats(prefix: str, spans) -> None:
            timed(prefix, spans)
            cells = sum(s[INFO]["rows"] * s[INFO]["cols"] for s in spans)
            nnz = sum(s[INFO]["nnz"] for s in spans)
            out[f"{prefix}.cells"] = (cells, "count")
            out[f"{prefix}.nnz_frac"] = (nnz / cells if cells else 0.0, "ratio")
            infeasible = sum(1 for s in spans if not s[INFO]["feasible"])
            out[f"{prefix}.infeasible"] = (infeasible, "count")

        solves = by_name[SOLVE]
        solve_stats(SOLVE, solves)
        for caller in SOLVE_CALLERS:
            solve_stats(
                f"{SOLVE}.from_{caller}", [s for s in solves if s[CALLER] == caller]
            )
        timed("exactalg.matrix_rank", by_name["exactalg.matrix_rank"])
        timed("exactalg.poly_gcd", by_name["exactalg.poly_gcd"])
        out[POLY_VALIDATED] = (self.counts[POLY_VALIDATED], "count")

        timed("vfield.parse_vector_field", by_name["vfield.parse_vector_field"])
        timed("vfield.lie_bracket", by_name["vfield.lie_bracket"])

        timed(
            "lieflt.check_bracket_compat",
            by_name["lieflt.check_bracket_compat"],
            ("s", "self_s"),
        )
        memberships = by_name[MEMBERSHIP]
        timed(MEMBERSHIP, memberships)
        for verdict in ("pass", "fail", "inconclusive"):
            count = sum(1 for s in memberships if s[INFO]["verdict"] == verdict)
            out[f"{MEMBERSHIP}.{verdict}"] = (count, "count")
        timed("lieflt.check_clean", by_name["lieflt.check_clean"], ("s",))
        timed("lieflt.tangency_solve", by_name["lieflt.tangency_solve"])

        timed(
            "weightcoord.weighted_coordinates",
            by_name["weightcoord.weighted_coordinates"],
            ("s",),
        )

        timed("jets.flowout_sample", by_name["jets.flowout_sample"], ("s", "self_s"))
        timed("jets.u_exp_act", by_name["jets.u_exp_act"])
        timed("jets.q_membership", by_name["jets.q_membership"])

        timed(
            "osculating.osculating_at",
            by_name["osculating.osculating_at"],
            ("s", "self_s"),
        )
        timed("osculating.tangent_subalg", by_name["osculating.tangent_subalg"], ("s",))
        timed("osculating.verify_hh", by_name["osculating.verify_hh"], ("s",))

        timed("cli.load_problem", by_name["cli.load_problem"], ("s",))
        timed("cli.render_json", by_name["cli.render_json"], ("s",))
        return out
