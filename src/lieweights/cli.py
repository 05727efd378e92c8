"""Batch front end: problem files in, staged verdict reports out.

A problem file describes a chart, a filtration, and a submanifold.  Each
command runs a prefix of the stage pipeline (bracket-compat, clean,
weights, coordinates, jets, osculating) and reports one verdict per
stage.  The pipeline stops at the first failing stage; inconclusive
stages do not stop it.  Exit codes: 0 all pass, 1 some stage failed,
2 no failure but something inconclusive, 3 bad input.

JSON reports are emitted with sorted keys and fixed indentation, so a
given input file and flag set always produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exactalg import record
from .jets import flowout_sample, q_dimension
from .lieflt import (
    FAIL,
    INCONCLUSIVE,
    MAX_MONOMIALS,
    PASS,
    Filtration,
    Submanifold,
    capped_bound,
    check_bracket_compat,
    check_clean,
    weight_sequence,
    worst_verdict,
)
from .osculating import osculating_at, tangent_subalg, verify_hh
from .vfield import (
    Chart,
    ParseError,
    coordinate_field,
    format_scalar,
    format_vector_field,
    parse_vector_field,
)
from .weightcoord import weighted_coordinates

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3

EXIT_CODES = {PASS: EXIT_PASS, FAIL: EXIT_FAIL, INCONCLUSIVE: EXIT_INCONCLUSIVE}

# bound for the osculating quotient solves when the caller does not pin
# one; the membership default grows too fast for pure-rational elimination
DEFAULT_OSCULATE_BOUND = 2

STAGE_ORDER = (
    "bracket-compat",
    "clean",
    "weights",
    "coordinates",
    "jets",
    "osculating",
)

COMMAND_STAGES = {
    "check": ("bracket-compat", "clean"),
    "weights": ("bracket-compat", "clean", "weights"),
    "coords": ("bracket-compat", "clean", "weights", "coordinates"),
    "jets": ("bracket-compat", "clean", "weights", "coordinates", "jets"),
    "osculate": ("bracket-compat", "clean", "weights", "coordinates", "osculating"),
    "report": STAGE_ORDER,
}


class ProblemError(ValueError):
    """Anything wrong with the problem document or the command line."""


@record
class ProblemSpec:
    chart: Chart
    filtration: Filtration
    submanifold: Submanifold
    degree_bound: int | None
    samples: int
    seed: int


def _as_fraction(value, where: str) -> Fraction:
    """A base-point entry as a rational: an int, or a string Fraction reads.

    A string's numerator and denominator may have at most
    sys.get_int_max_str_digits() digits, the limit the expression parser
    holds its numbers to.  A nonzero mantissa times 10**E has more than
    that once |E| exceeds the limit plus the string's length, so such an
    exponent is refused before anything is built; any other string is
    built and its digits counted.
    """
    if isinstance(value, bool):
        raise ProblemError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise ProblemError(f"{where}: expected a rational string, got {value!r}")
    limit = sys.get_int_max_str_digits()
    # Fraction(str) expands the exponent of a decimal like "1e300" into a
    # factor 10**|exponent|, with no digit limit
    _, e, exponent = value.lower().partition("e")
    try:
        past = bool(limit and e) and abs(int(exponent)) > limit + len(value)
        q = None if past else Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemError(f"{where}: bad rational {value!r}") from exc
    if limit and not past:
        # 10**limit has more than 3 * limit bits: only a longer value is compared
        top = max(abs(q.numerator), q.denominator)
        past = top.bit_length() > 3 * limit and top >= 10**limit
    if past:
        raise ProblemError(f"{where}: rational {value!r} is past the limit of {limit} digits")
    return q


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ProblemError(f"{where}: missing required key {key!r}")
    return doc[key]


def _opt_int(doc: dict, key: str, where: str) -> int | None:
    if key not in doc:
        return None
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemError(f"{where}: {key} must be an integer")
    return value


def load_problem(
    path: str,
    degree_bound: int | None = None,
    samples: int | None = None,
    seed: int | None = None,
) -> ProblemSpec:
    """Parse and validate a problem document; flags override file values.

    The levels list their generators cumulatively, so a string usually
    recurs at every level from its first one on: each distinct string is
    parsed once, and every level that lists it holds the same field.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ProblemError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ProblemError(f"{path}: expected a JSON object at top level")

    variables = _require(doc, "variables", path)
    if (
        not isinstance(variables, list)
        or not variables
        or not all(isinstance(v, str) and v for v in variables)
    ):
        raise ProblemError(f"{path}: variables must be a list of names")
    if len(set(variables)) != len(variables):
        raise ProblemError(f"{path}: variable names must be distinct")
    try:
        chart = Chart(tuple(variables))
    except ValueError as exc:
        raise ProblemError(f"{path}: {exc}") from exc
    n = chart.dim

    order = _require(doc, "order", path)
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise ProblemError(f"{path}: order must be an integer >= 1")

    filtration_doc = _require(doc, "filtration", path)
    if not isinstance(filtration_doc, dict):
        raise ProblemError(f"{path}: filtration must be an object")
    levels: list[tuple] = []
    parsed: dict = {}
    for depth in range(1, order + 1):
        key = str(-depth)
        if key not in filtration_doc:
            raise ProblemError(f"{path}: filtration is missing level {key!r}")
        entry = filtration_doc[key]
        if entry == "full":
            if depth != order:
                raise ProblemError(
                    f"{path}: the \"full\" token is only allowed at level {-order}"
                )
            previous = list(levels[-1]) if levels else []
            frame = [coordinate_field(chart, a) for a in range(n)]
            levels.append(tuple(previous + frame))
            continue
        if not isinstance(entry, list) or not all(
            isinstance(e, str) for e in entry
        ):
            raise ProblemError(
                f"{path}: filtration level {key!r} must be a list of expressions"
            )
        for expr in entry:
            if expr not in parsed:
                try:
                    parsed[expr] = parse_vector_field(expr, chart)
                except ParseError as exc:
                    raise ProblemError(
                        f"{path}: level {key!r}: cannot parse {expr!r}: {exc}"
                    ) from exc
        levels.append(tuple(parsed[expr] for expr in entry))
    extra = set(filtration_doc) - {str(-d) for d in range(1, order + 1)}
    if extra:
        raise ProblemError(
            f"{path}: filtration has unexpected levels {sorted(extra)}"
        )
    try:
        filtration = Filtration(chart, order, levels)
    except ValueError as exc:
        raise ProblemError(f"{path}: {exc}") from exc

    sub_doc = _require(doc, "submanifold", path)
    if not isinstance(sub_doc, dict):
        raise ProblemError(f"{path}: submanifold must be an object")
    tangent_names = _require(sub_doc, "tangent", f"{path}: submanifold")
    if not isinstance(tangent_names, list) or not all(
        isinstance(t, str) for t in tangent_names
    ):
        raise ProblemError(f"{path}: submanifold tangent must be a list of names")
    tangent_indices = []
    for name in tangent_names:
        try:
            tangent_indices.append(chart.index(name))
        except KeyError as exc:
            raise ProblemError(
                f"{path}: unknown tangent variable {name!r}"
            ) from exc
    base_doc = _require(sub_doc, "base_point", f"{path}: submanifold")
    if not isinstance(base_doc, list) or len(base_doc) != n:
        raise ProblemError(
            f"{path}: base_point must list one rational per variable"
        )
    base_point = [
        _as_fraction(v, f"{path}: base_point[{i}]") for i, v in enumerate(base_doc)
    ]
    try:
        submanifold = Submanifold(chart, tangent_indices, base_point)
    except ValueError as exc:
        raise ProblemError(f"{path}: {exc}") from exc

    file_bound = _opt_int(doc, "degree_bound", path)
    file_samples = _opt_int(doc, "samples", path)
    file_seed = _opt_int(doc, "seed", path)
    bound = degree_bound if degree_bound is not None else file_bound
    count = samples if samples is not None else (
        file_samples if file_samples is not None else 100
    )
    rng_seed = seed if seed is not None else (
        file_seed if file_seed is not None else 0
    )
    if count < 0:
        raise ProblemError(f"{path}: samples must be non-negative")
    if bound is not None and bound < 0:
        raise ProblemError(f"{path}: degree bound must be non-negative, got {bound}")
    if bound is not None and math.comb(n + bound, n) > MAX_MONOMIALS:
        raise ProblemError(
            f"{path}: degree bound {bound} gives {math.comb(n + bound, n)} monomials "
            f"in {n} variables, over the limit of {MAX_MONOMIALS}"
        )
    return ProblemSpec(
        chart=chart,
        filtration=filtration,
        submanifold=submanifold,
        degree_bound=bound,
        samples=count,
        seed=rng_seed,
    )


class _Pipeline:
    """Runs stages in order, sharing computed artifacts between them."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.clean = None
        self.weighting = None

    def bound(self, default: int) -> int:
        """The explicit degree bound if one was given, else the default
        lowered by lieflt.capped_bound to fit MAX_MONOMIALS.  An explicit
        bound past the cap is an input error; a defaulted one is only too
        small, so the stages that need more give inconclusive."""
        if self.spec.degree_bound is not None:
            return self.spec.degree_bound
        return capped_bound(self.spec.chart.dim, default)

    def stage_bracket_compat(self):
        bound = self.bound(self.spec.filtration.default_degree_bound())
        report = check_bracket_compat(self.spec.filtration, bound)
        data = {"degree_bound": bound, "pairs_checked": len(report.checks)}
        if report.verdict == FAIL:
            bad = report.first_failure()
            data["witness"] = {
                "levels": [bad.i, bad.j],
                "generators": [bad.gi, bad.gj],
                "point": [str(c) for c in bad.result.certificate],
            }
        elif report.verdict == INCONCLUSIVE:
            data["reason"] = "degree_bound"
            data["unresolved"] = [
                [c.i, c.j, c.gi, c.gj]
                for c in report.checks
                if c.result.verdict == INCONCLUSIVE
            ]
        return report.verdict, data

    def stage_clean(self):
        self.clean = check_clean(self.spec.filtration, self.spec.submanifold)
        data = {
            "ranks": list(self.clean.ranks),
            "generic_ranks": list(self.clean.generic_ranks),
        }
        if self.clean.verdict == FAIL:
            data["first_bad_level"] = self.clean.first_bad_level
        return self.clean.verdict, data

    def stage_weights(self):
        try:
            weights = weight_sequence(self.clean)
        except ValueError as exc:
            return FAIL, {"error": str(exc)}
        names = self.spec.chart.names
        data = {
            "weights": list(weights),
            "adapted_order": [names[p] for p in self.spec.submanifold.adapted_order],
        }
        return PASS, data

    def stage_coordinates(self):
        try:
            self.weighting = weighted_coordinates(self.clean)
        except ValueError as exc:
            return FAIL, {"error": str(exc)}
        W = self.weighting
        chart, weighted_chart = self.spec.chart, W.chart
        data = {
            "coordinates": [format_scalar(f, chart) for f in W.forward],
            "inverse": [format_scalar(f, weighted_chart) for f in W.inverse],
            "frame": [format_vector_field(v) for v in self.clean.frame],
            "corrections": [
                {
                    "position": rec.position,
                    "multi_index": list(rec.multi_index),
                    "constant": str(rec.constant),
                }
                for rec in W.corrections
            ],
        }
        return PASS, data

    def stage_jets(self):
        sample = flowout_sample(
            self.spec.filtration, self.weighting, self.spec.samples, self.spec.seed
        )
        qdim = q_dimension(self.clean.ranks)
        data = {
            "q_dimension": {
                "total": qdim.total,
                "base": qdim.base,
                "graded": list(qdim.graded),
            },
            "samples": {
                "tested": sample.tested,
                "failed": sample.failed,
                "first_failure": sample.first_failure,
            },
            "seed": self.spec.seed,
        }
        if not sample.passed:
            return FAIL, data
        if not sample.tested:
            data["reason"] = "no_samples"
            return INCONCLUSIVE, data
        if not sample.certified:
            data["reason"] = "uncertified"
            return INCONCLUSIVE, data
        return PASS, data

    def stage_osculating(self):
        bound = self.bound(DEFAULT_OSCULATE_BOUND)
        algebra = osculating_at(
            self.spec.filtration, self.spec.submanifold.base_point, bound
        )
        tangent = tangent_subalg(
            self.spec.filtration, self.spec.submanifold, bound, parent=algebra
        )
        report = verify_hh(self.weighting, algebra, tangent)
        constants = [
            [u, v, k, str(c)]
            for (u, v), vec in sorted(algebra.structure.items())
            for k, c in sorted(vec.items())
        ]
        data = {
            "degree_bound": bound,
            "graded_dims": list(report.p_dims),
            "tangent_dims": list(report.r_dims),
            "quotient_dims": list(report.quotient_dims),
            "expected_dims": list(report.expected_dims),
            "structure_constants": constants,
            "unverified": [list(p) for p in algebra.unverified],
            "checks": {
                "fiber_total": report.fiber_total_ok,
                "per_degree": report.per_degree_ok,
                "maps_into": report.maps_into_ok,
            },
        }
        if report.verdict == INCONCLUSIVE:
            data["reason"] = "degree_bound"
        return report.verdict, data

    def run(self, stages: Sequence[str]) -> list[dict]:
        runners = {
            "bracket-compat": self.stage_bracket_compat,
            "clean": self.stage_clean,
            "weights": self.stage_weights,
            "coordinates": self.stage_coordinates,
            "jets": self.stage_jets,
            "osculating": self.stage_osculating,
        }
        results = []
        for name in stages:
            verdict, data = runners[name]()
            results.append({"name": name, "verdict": verdict, "data": data})
            if verdict == FAIL:
                break
        return results


def overall_exit(results: Sequence[dict]) -> int:
    return EXIT_CODES[worst_verdict(r["verdict"] for r in results)]


def render_json(results: Sequence[dict]) -> str:
    return json.dumps({"stages": list(results)}, indent=2, sort_keys=True) + "\n"


def _stage_summary(result: dict) -> str:
    data = result["data"]
    name = result["name"]
    if name == "clean" and "ranks" in data:
        return f"ranks={data['ranks']}"
    if name == "weights" and "weights" in data:
        return f"weights={data['weights']}"
    if name == "coordinates" and "coordinates" in data:
        return "coordinates=" + ", ".join(data["coordinates"])
    if name == "jets" and "samples" in data:
        s = data["samples"]
        return (
            f"tested={s['tested']} failed={s['failed']} "
            f"q_total={data['q_dimension']['total']}"
        )
    if name == "osculating" and "graded_dims" in data:
        return (
            f"dims={data['graded_dims']} tangent={data['tangent_dims']} "
            f"quotient={data['quotient_dims']}"
        )
    if "error" in data:
        return data["error"]
    if "witness" in data:
        return f"witness point {data['witness']['point']}"
    return ""


def render_text(results: Sequence[dict]) -> str:
    lines = []
    for result in results:
        summary = _stage_summary(result)
        line = f"{result['name']:<14} {result['verdict']}"
        if summary:
            line += "  " + summary
        lines.append(line)
    lines.append(f"overall: {worst_verdict(r['verdict'] for r in results)}")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep code 3 for input
        raise ProblemError(message)


# built on the first call and kept: parsing leaves the parser as it was, and
# it depends on no problem.  Not at import, where its gettext and formatter
# set-up would add to every start-up
@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="lieweights",
        description="Weighted coordinates, jet flow-out checks and osculating "
        "algebras for singular Lie filtrations.",
    )
    parser.add_argument("command", choices=sorted(COMMAND_STAGES))
    parser.add_argument("file", help="problem document (JSON)")
    parser.add_argument("--json", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--degree-bound", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        spec = load_problem(
            args.file,
            degree_bound=args.degree_bound,
            samples=args.samples,
            seed=args.seed,
        )
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    pipeline = _Pipeline(spec)
    results = pipeline.run(COMMAND_STAGES[args.command])
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(render_json(results))
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return EXIT_INPUT
    if not args.quiet:
        sys.stdout.write(render_text(results))
    return overall_exit(results)


if __name__ == "__main__":
    sys.exit(main())
