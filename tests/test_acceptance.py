"""Acceptance gate: ten pinned end-to-end criteria, one test per criterion.

Every comparison is exact (Fraction arithmetic); the timing assertions
are generous wall-clock budgets, not benchmarks.  Run with -v to get one
pass/fail line per criterion.
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from corpus import lift_identity_cases
from lieweights.cli import load_problem, main
from lieweights.exactalg import Poly, matrix_rank
from lieweights.jets import (
    JetChart,
    LiftCombination,
    flowout_sample,
    koszul_shift,
    lift_function,
    lift_vf,
    q_dimension,
)
from lieweights.lieflt import Submanifold, check_bracket_compat, check_clean
from lieweights.osculating import bch, osculating_at, tangent_subalg, verify_hh
from lieweights.vfield import (
    Chart,
    coordinate_field,
    format_scalar,
    lie_bracket,
    parse_scalar,
    parse_vector_field,
)
from lieweights.weightcoord import weighted_coordinates

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
EXAMPLE1 = str(PROBLEMS / "example1.json")
EXAMPLE2 = str(PROBLEMS / "example2.json")
HEISENBERG = str(PROBLEMS / "heisenberg.json")
BROKEN = str(PROBLEMS / "broken.json")

VECTOR_POOL = tuple(Fraction(n, d) for n in (-2, -1, 0, 1, 2) for d in (1, 2))


def _verdict(num, label, elapsed):
    print(f"criterion {num:02d}: pass  {label}  ({elapsed:.2f}s)")


def _heisenberg_carnot():
    chart = Chart(("x", "y", "z"))
    x = parse_vector_field("dx", chart)
    y = parse_vector_field("dy + x*dz", chart)
    z = parse_vector_field("dz", chart)
    from lieweights.lieflt import Filtration

    return Filtration(chart, 2, ((x, y), (x, y, z))), Submanifold(
        chart, (), (Fraction(0), Fraction(0), Fraction(0))
    )


def test_criterion_01_first_example_weights_and_coordinates():
    start = time.perf_counter()
    spec = load_problem(EXAMPLE1)
    result = weighted_coordinates(check_clean(spec.filtration, spec.submanifold))
    assert result.weights == (1, 2, 3)
    coords = [format_scalar(f, spec.chart) for f in result.forward]
    assert coords == ["x", "y", "z - 1/2*x^2"]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _verdict(1, "weights (1,2,3), coordinates (x, y, z - 1/2*x^2)", elapsed)


def test_criterion_02_second_example_weights_and_coordinates():
    start = time.perf_counter()
    spec = load_problem(EXAMPLE2)
    result = weighted_coordinates(check_clean(spec.filtration, spec.submanifold))
    assert result.weights == (1, 2, 4)
    coords = [format_scalar(f, spec.chart) for f in result.forward]
    assert coords == ["x", "y", "z - x^2 - x*y"]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _verdict(2, "weights (1,2,4), coordinates (x, y, z - x^2 - x*y)", elapsed)


def test_criterion_03_normalization_constants_are_factorials():
    # every recorded constant must be the factorial product of its
    # multi-index, and direct operator application must reproduce it:
    # applying the frame per the multi-index to the matching product of
    # weighted coordinates and evaluating on the submanifold
    start = time.perf_counter()
    checked = 0
    for path in (EXAMPLE1, EXAMPLE2):
        spec = load_problem(path)
        result = weighted_coordinates(check_clean(spec.filtration, spec.submanifold))
        base = spec.submanifold.base_point
        forward = result.forward
        for rec in result.corrections:
            expected = math.prod(math.factorial(e) for e in rec.multi_index)
            assert rec.constant == expected
            monomial = None
            for position, power in enumerate(rec.multi_index):
                for _ in range(power):
                    factor = forward[position]
                    monomial = factor if monomial is None else monomial * factor
            for position, power in enumerate(rec.multi_index):
                for _ in range(power):
                    monomial = result.clean.frame[position].apply(monomial)
            assert monomial.eval(base) == expected
            checked += 1
    assert checked > 0
    elapsed = time.perf_counter() - start
    _verdict(3, f"{checked} normalization constants match factorials", elapsed)


def test_criterion_04_lift_identities_on_random_corpus():
    start = time.perf_counter()
    cases = lift_identity_cases(seed=2026, count=200)
    assert len(cases) == 200
    for chart, r, x, y, f, i, j in cases:
        jc = JetChart(chart, r)
        lx = lift_vf(jc, x, i)
        ly = lift_vf(jc, y, j)
        got = lie_bracket(lx.field, ly.field)
        if i + j <= r:
            assert got == lift_vf(jc, lie_bracket(x, y), i + j).field
        else:
            assert got.is_zero()
        lhs = lift_vf(jc, x.scale(f), i).field
        terms = tuple(
            (lift_function(jc, f, k), x, i + k) for k in range(r - i + 1)
        )
        assert lhs == LiftCombination(jc, terms).materialize()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _verdict(4, "bracket and module lift identities on 200 pairs", elapsed)


def test_criterion_05_shift_operator_on_same_corpus():
    start = time.perf_counter()
    for chart, r, x, _y, _f, _i, j in lift_identity_cases(seed=2026, count=200):
        jc = JetChart(chart, r)
        comb = LiftCombination(jc, ((Poly.one(jc.dim), x, j),))
        shifted = koszul_shift(comb)
        if j < r:
            assert shifted.materialize() == lift_vf(jc, x, j + 1).field
        top = koszul_shift(LiftCombination(jc, ((Poly.one(jc.dim), x, r),)))
        assert top.terms == ()
        assert top.materialize().is_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _verdict(5, "shift raises lift level and kills the top level", elapsed)


def test_criterion_06_flowout_membership_and_dimension():
    start = time.perf_counter()
    spec2 = load_problem(EXAMPLE2)
    result2 = weighted_coordinates(check_clean(spec2.filtration, spec2.submanifold))
    report = flowout_sample(spec2.filtration, result2, 100, 0)
    assert report.tested == 100
    assert report.failed == 0
    assert report.first_failure is None
    assert q_dimension(result2.clean.ranks).total == 8
    spec1 = load_problem(EXAMPLE1)
    result1 = weighted_coordinates(check_clean(spec1.filtration, spec1.submanifold))
    assert q_dimension(result1.clean.ranks).total == 6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _verdict(6, "100/100 flow-out samples, dimensions 8 and 6", elapsed)


def test_criterion_07_osculating_algebra_oracles():
    start = time.perf_counter()
    heis_filt, heis_sub = _heisenberg_carnot()
    heis = osculating_at(heis_filt, heis_sub.base_point, 2)
    assert heis.graded_dims() == (2, 1)
    nonzero = [entry for entry in heis.structure if any(entry[2])]
    assert len(nonzero) == 1
    assert nonzero[0][:2] == (0, 1)

    spec = load_problem(EXAMPLE2)
    algebra = osculating_at(spec.filtration, spec.submanifold.base_point, 2)
    assert algebra.graded_dims() == (1, 1, 1, 1)
    tangent = tangent_subalg(spec.filtration, spec.submanifold, 2, parent=algebra)
    assert tangent.graded_dims() == (0, 0, 1, 0)
    weighting = weighted_coordinates(check_clean(spec.filtration, spec.submanifold))
    report = verify_hh(weighting, algebra, tangent)
    assert report.quotient_dims == (1, 1, 0, 1)
    assert report.expected_dims == (1, 1, 0, 1)
    assert report.verdict == "pass"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _verdict(7, "graded dims (2,1) and (1,1,1,1)/(0,0,1,0)/(1,1,0,1)", elapsed)


def test_criterion_08_checker_soundness_and_certificates():
    start = time.perf_counter()
    broken = load_problem(BROKEN)
    report = check_bracket_compat(broken.filtration, 2)
    assert report.verdict == "fail"
    bad = report.first_failure()
    point = bad.result.certificate
    bracket = lie_bracket(
        broken.filtration.levels[bad.i - 1][bad.gi],
        broken.filtration.levels[bad.j - 1][bad.gj],
    )
    level = min(bad.i + bad.j, broken.filtration.order)
    gens = broken.filtration.generators(level)
    columns = [g.value_at(point) for g in gens]
    base_rows = [[col[a] for col in columns] for a in range(3)]
    value = bracket.value_at(point)
    extended = [row + [value[a]] for a, row in enumerate(base_rows)]
    assert matrix_rank(extended) > matrix_rank(base_rows)

    martinet = load_problem(EXAMPLE2).filtration
    good = check_bracket_compat(martinet, 2)
    assert good.verdict == "pass"
    frame = [coordinate_field(martinet.chart, a) for a in range(3)]
    for check in good.checks:
        cert = check.result.certificate
        bracket = lie_bracket(
            martinet.levels[check.i - 1][check.gi],
            martinet.levels[check.j - 1][check.gj],
        )
        if check.i + check.j <= martinet.order:
            basis = list(martinet.generators(check.i + check.j))
        else:
            basis = frame + list(martinet.generators(martinet.order))
        assert len(cert) == len(basis)
        total = None
        for coeff, gen in zip(cert, basis):
            piece = gen.scale(coeff)
            total = piece if total is None else total + piece
        assert total == bracket
    elapsed = time.perf_counter() - start
    _verdict(8, "witness point confirmed, certificates re-substitute", elapsed)


def test_criterion_09_group_law_and_algebra_axioms():
    start = time.perf_counter()
    heis_filt, heis_sub = _heisenberg_carnot()
    heis = osculating_at(heis_filt, heis_sub.base_point, 2)
    spec2 = load_problem(EXAMPLE2)
    martinet = osculating_at(spec2.filtration, spec2.submanifold.base_point, 2)
    spec1 = load_problem(EXAMPLE1)
    flag = osculating_at(spec1.filtration, spec1.submanifold.base_point, 2)

    rng = random.Random(20260814)
    for algebra in (martinet, heis):
        for _ in range(50):
            a, b, c = (
                tuple(rng.choice(VECTOR_POOL) for _ in range(algebra.dim))
                for _ in range(3)
            )
            left = bch(algebra, bch(algebra, a, b), c)
            right = bch(algebra, a, bch(algebra, b, c))
            assert left == right

    for algebra in (heis, martinet, flag):
        assert algebra.axioms_ok()
        assert algebra.check_antisymmetry()
        assert algebra.check_grading()
        assert algebra.check_jacobi()
    elapsed = time.perf_counter() - start
    _verdict(9, "bch associativity on 100 triples, axioms on 3 algebras", elapsed)


def test_criterion_10_deterministic_reports_and_round_trip(tmp_path):
    start = time.perf_counter()
    for name in ("example1.json", "example2.json", "heisenberg.json", "broken.json"):
        path = str(PROBLEMS / name)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(["report", path, "--json", str(first), "--quiet"]) == main(
            ["report", path, "--json", str(second), "--quiet"]
        )
        assert first.read_bytes() == second.read_bytes()
        report = json.loads(first.read_text())
        spec = load_problem(path)
        for entry in report["stages"]:
            if entry["name"] != "coordinates":
                continue
            clean = check_clean(spec.filtration, spec.submanifold)
            expected = weighted_coordinates(clean).forward
            strings = entry["data"]["coordinates"]
            assert len(strings) == len(expected)
            for text, value in zip(strings, expected):
                assert parse_scalar(text, spec.chart) == value
    elapsed = time.perf_counter() - start
    _verdict(10, "byte-identical reports, coordinates re-parse exactly", elapsed)
