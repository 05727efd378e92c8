"""Osculating algebra construction: frozen examples and algebra axioms."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import (
    CHART_TABC,
    CHARTS,
    COEFFS,
    CountingRowEchelon,
    filiform_problem,
    free_nilpotent_problem,
    module_solve,
    multiple_columns,
    pushed_forward_model,
    random_poly,
    translate_reference,
    unpack_reference,
)
from lieweights import lieflt, osculating
from lieweights.cli import load_problem
from lieweights.exactalg import (
    Poly,
    RatFunc,
    RowEchelon,
    grlex_key,
    weight_of,
    weighted_multiindices,
)
from lieweights.lieflt import (
    Filtration,
    ModuleRows,
    Submanifold,
    check_clean,
    fields_degree,
    monomials_up_to,
    tangency_solve,
)
from lieweights.vfield import (
    Chart,
    VectorField,
    coordinate_field,
    lie_bracket,
    parse_vector_field,
)
from lieweights.weightcoord import (
    WeightedChart,
    push_to_weighted,
    vf_degree_in_chart,
    weighted_coordinates,
)
from lieweights.osculating import (
    GradedLieAlg,
    GradedSubalg,
    bch,
    class_in_tangent_part,
    osculating_at,
    tangent_subalg,
    verify_hh,
    weighted_fiber_class,
)

CHART3 = Chart(("x", "y", "z"))
ORIGIN3 = Submanifold(CHART3, (), (0, 0, 0))


def heisenberg():
    x_fld = parse_vector_field("dx", CHART3)
    y_fld = parse_vector_field("dy + x*dz", CHART3)
    z_fld = parse_vector_field("dz", CHART3)
    return Filtration(CHART3, 2, ((x_fld, y_fld), (x_fld, y_fld, z_fld)))


def step3_flag():
    # rank growth 1, 2, 3; all brackets happen to vanish at the origin
    x_fld = parse_vector_field("dx + x*dz", CHART3)
    y_fld = parse_vector_field("dy", CHART3)
    z_fld = parse_vector_field("dz", CHART3)
    return Filtration(CHART3, 3, ((x_fld,), (x_fld, y_fld), (x_fld, y_fld, z_fld)))


def step4_flag():
    x_fld = parse_vector_field("dx + (2*x + y)*dz", CHART3)
    y_fld = parse_vector_field("dy + (x + x^2)*dz", CHART3)
    b_fld = parse_vector_field("2*x*dz", CHART3)
    full = (
        x_fld,
        y_fld,
        b_fld,
        coordinate_field(CHART3, 0),
        coordinate_field(CHART3, 1),
        coordinate_field(CHART3, 2),
    )
    return Filtration(CHART3, 4, ((x_fld,), (x_fld, y_fld), (x_fld, y_fld, b_fld), full))


def hh_report(filtration, submanifold, algebra):
    """verify_hh on the weighting and the bound-2 tangent subalgebra, as
    the report pipeline builds them."""
    weighting = weighted_coordinates(check_clean(filtration, submanifold))
    tangent = tangent_subalg(filtration, submanifold, 2, parent=algebra)
    return verify_hh(weighting, algebra, tangent)


def random_element(rng, dim, lo, hi):
    """An element with one rng.randint(lo, hi) draw per basis index, the
    zero draws dropped."""
    drawn = {w: Fraction(rng.randint(lo, hi)) for w in range(dim)}
    return {w: c for w, c in drawn.items() if c}


@pytest.fixture(scope="module")
def heis_alg():
    return osculating_at(heisenberg(), (0, 0, 0), 2)


@pytest.fixture(scope="module")
def step4_alg():
    return osculating_at(step4_flag(), (0, 0, 0), 2)


class TestHeisenberg:
    def test_dims_and_degrees(self, heis_alg):
        assert heis_alg.graded_dims() == (2, 1)
        assert heis_alg.degrees == (-1, -1, -2)

    def test_representatives(self, heis_alg):
        filt = heisenberg()
        assert heis_alg.representatives == (
            filt.levels[0][0],
            filt.levels[0][1],
            filt.levels[1][2],
        )

    def test_bracket(self, heis_alg):
        assert heis_alg.bracket_basis(0, 1) == {2: 1}
        assert heis_alg.bracket_basis(1, 0) == {2: -1}

    def test_candidate_classes(self, heis_alg):
        # level 2 candidates: the two level-1 fields die, dz survives
        assert heis_alg.candidate_classes[1] == ({}, {}, {2: 1})

    def test_axioms(self, heis_alg):
        assert heis_alg.unverified == ()
        assert heis_alg.axioms_ok()

    @pytest.mark.parametrize(
        "structure",
        [
            # the bracket stored under the reversed key, which bracket_basis
            # never reads
            {(1, 0): {2: Fraction(1)}},
            # a zero stored as a structure constant
            {(0, 1): {2: Fraction(0)}},
            {(0, 1): {}},
            {(0, 1): {2: Fraction(1)}, (1, 1): {2: Fraction(1)}},
            {(0, 1): {2: Fraction(1)}, (1, 3): {2: Fraction(1)}},
        ],
    )
    def test_antisymmetry_refuses_a_malformed_structure(self, heis_alg, structure):
        fields = {
            f: getattr(heis_alg, f)
            for f in ("order", "degrees", "representatives", "unverified", "candidate_classes")
        }
        alg = GradedLieAlg(structure=structure, **fields)
        assert not alg.check_antisymmetry()
        assert not alg.axioms_ok()
        assert GradedLieAlg(structure=heis_alg.structure, **fields).axioms_ok()

    @pytest.mark.parametrize("point", [(1, 5, -2), (0, 0, 7), (-3, 2, 1)])
    def test_regular_dims_at_other_points(self, point):
        alg = osculating_at(heisenberg(), point, 2)
        assert alg.graded_dims() == (2, 1)
        assert alg.bracket_basis(0, 1) == {2: 1}


@pytest.mark.parametrize(
    "third, point, cls",
    [
        # constant relation dx + 2*dy - third = 0
        ("dx + 2*dy", (0, 0), {0: 1, 1: 2}),
        # dx + x*dy = dx + dy + (x - 1)*dy, the last term in the ideal at (1, 0)
        ("dx + x*dy", (1, 0), {0: 1, 1: 1}),
    ],
)
def test_candidate_classes_through_relations(third, point, cls):
    chart = Chart(("x", "y"))
    gens = tuple(parse_vector_field(t, chart) for t in ("dx", "dy", third))
    alg = osculating_at(Filtration(chart, 1, (gens,)), point, 2)
    assert alg.graded_dims() == (2,)
    assert alg.candidate_classes[0] == ({0: 1}, {1: 1}, cls)


class TestStepFourFlag:
    def test_dims(self, step4_alg):
        assert step4_alg.graded_dims() == (1, 1, 1, 1)

    def test_structure_constants(self, step4_alg):
        assert step4_alg.bracket_basis(0, 1) == {2: 1}
        assert step4_alg.bracket_basis(0, 2) == {3: 2}
        assert step4_alg.bracket_basis(2, 0) == {3: -2}
        # beyond the grading everything vanishes
        assert step4_alg.bracket_basis(1, 2) == {}
        assert step4_alg.bracket_basis(2, 3) == {}

    def test_axioms(self, step4_alg):
        assert step4_alg.unverified == ()
        assert step4_alg.axioms_ok()

    def test_bracket_elements_bilinear(self, step4_alg):
        x = {0: Fraction(2), 2: Fraction(-1), 3: Fraction(3)}
        y = {0: Fraction(1), 1: Fraction(4)}
        # [2e1 - e3 + 3e4, e1 + 4e2] = 8[e1,e2] - [e3,e1] = 8e3 + 2e4
        assert step4_alg.bracket_elements(x, y) == {2: 8, 3: 2}

    def test_low_degree_bound_inflates_top_level(self):
        # the relations dx ~ level-1 field need ideal coefficients of
        # degree 1, so bound 0 misses them and the top level triples
        alg = osculating_at(step4_flag(), (0, 0, 0), degree_bound=0)
        assert alg.graded_dims() == (1, 1, 1, 3)

    def test_tangent_subalgebra(self, step4_alg):
        sub = tangent_subalg(step4_flag(), ORIGIN3, 2, parent=step4_alg)
        assert sub.graded_dims() == (0, 0, 1, 0)
        assert sub.spans[2] == ({2: Fraction(1)},)
        assert sub.closed_under_bracket()

    def test_hh_report(self, step4_alg):
        report = hh_report(step4_flag(), ORIGIN3, step4_alg)
        assert report.verdict == "pass"
        assert report.p_dims == (1, 1, 1, 1)
        assert report.r_dims == (0, 0, 1, 0)
        assert report.quotient_dims == (1, 1, 0, 1)
        assert report.expected_dims == (1, 1, 0, 1)


class TestStepThreeFlag:
    def test_abelian(self):
        alg = osculating_at(step3_flag(), (0, 0, 0), 2)
        assert alg.graded_dims() == (1, 1, 1)
        assert alg.structure == {}
        assert alg.axioms_ok()

    def test_tangent_trivial_at_point(self):
        alg = osculating_at(step3_flag(), (0, 0, 0), 2)
        sub = tangent_subalg(step3_flag(), ORIGIN3, 2, parent=alg)
        assert sub.graded_dims() == (0, 0, 0)

    def test_hh_report(self):
        alg = osculating_at(step3_flag(), (0, 0, 0), 2)
        report = hh_report(step3_flag(), ORIGIN3, alg)
        assert report.verdict == "pass"
        assert report.quotient_dims == (1, 1, 1)
        assert report.expected_dims == (1, 1, 1)


class TestTangentSubalgebra:
    def test_whole_chart_gives_everything(self, heis_alg):
        whole = Submanifold(CHART3, (0, 1, 2), (0, 0, 0))
        sub = tangent_subalg(heisenberg(), whole, 2, parent=heis_alg)
        assert sub.graded_dims() == heis_alg.graded_dims()
        assert sub.closed_under_bracket()

    def test_axis_spans(self, heis_alg):
        axis = Submanifold(CHART3, (0,), (0, 0, 0))
        sub = tangent_subalg(heisenberg(), axis, 2, parent=heis_alg)
        assert sub.graded_dims() == (1, 0)
        assert sub.spans[0] == ({0: Fraction(1)},)
        assert sub.contains({0: 1})
        assert not sub.contains({1: 1})

    def test_not_closed_detected(self, heis_alg):
        # span both level-1 classes but drop their bracket
        spans = (({0: Fraction(1)}, {1: Fraction(1)}), ())
        sub = GradedSubalg(parent=heis_alg, spans=spans)
        assert not sub.closed_under_bracket()

    def test_hh_report_along_axis(self, heis_alg):
        axis = Submanifold(CHART3, (0,), (0, 0, 0))
        report = hh_report(heisenberg(), axis, heis_alg)
        assert report.verdict == "pass"
        assert report.p_dims == (2, 1)
        assert report.r_dims == (1, 0)
        assert report.quotient_dims == (1, 1)
        assert report.expected_dims == (1, 1)

    def test_hh_detects_bad_tangent_span(self, step4_alg):
        # claim the top-level class is tangent: its bare-direction
        # component survives, so the class map check must fail
        spans = ((), (), ({2: Fraction(1)},), ({3: Fraction(1)},))
        bad = GradedSubalg(parent=step4_alg, spans=spans)
        weighting = weighted_coordinates(check_clean(step4_flag(), ORIGIN3))
        report = verify_hh(weighting, step4_alg, bad)
        assert not report.maps_into_ok
        assert report.verdict == "fail"


class TestUnverifiedBrackets:
    def cubic_flag(self):
        # [dx, dy + x^3*dz] = 3x^2*dz needs an ideal coefficient of
        # degree 2 to certify membership
        x_fld = parse_vector_field("dx", CHART3)
        y_fld = parse_vector_field("dy + x^3*dz", CHART3)
        full = (
            x_fld,
            y_fld,
            coordinate_field(CHART3, 0),
            coordinate_field(CHART3, 1),
            coordinate_field(CHART3, 2),
        )
        return Filtration(CHART3, 3, ((x_fld,), (x_fld, y_fld), full))

    def test_low_bound_leaves_bracket_unverified(self):
        alg = osculating_at(self.cubic_flag(), (0, 0, 0), degree_bound=1)
        assert (0, 1) in alg.unverified
        assert not alg.axioms_ok()

    def test_higher_bound_certifies_zero(self):
        alg = osculating_at(self.cubic_flag(), (0, 0, 0), degree_bound=3)
        assert alg.unverified == ()
        assert alg.bracket_basis(0, 1) == {}


class TestGroupLaw:
    def test_heisenberg_half_bracket(self, heis_alg):
        e1 = heis_alg.basis_vector(0)
        e2 = heis_alg.basis_vector(1)
        assert bch(heis_alg, e1, e2) == {0: 1, 1: 1, 2: Fraction(1, 2)}

    def test_step4_series(self, step4_alg):
        e1 = step4_alg.basis_vector(0)
        e2 = step4_alg.basis_vector(1)
        assert bch(step4_alg, e1, e2) == {0: 1, 1: 1, 2: Fraction(1, 2), 3: Fraction(1, 6)}

    def test_inverse_element(self, step4_alg):
        rng = random.Random(5)
        for _ in range(5):
            x = random_element(rng, step4_alg.dim, -3, 3)
            neg = {w: -c for w, c in x.items()}
            assert bch(step4_alg, x, neg) == {}
            assert bch(step4_alg, x, {}) == x

    def test_explicit_zero_entries_leave_no_zero_entry(self, heis_alg):
        # a zero entry of an argument scales to zero products, none stored
        x = {0: Fraction(1), 1: Fraction(0)}
        y = {1: Fraction(1), 2: Fraction(0)}
        for got, expected in (
            (bch(heis_alg, x, y), {0: 1, 1: 1, 2: Fraction(1, 2)}),
            (bch(heis_alg, x, {}), {0: 1}),
            (heis_alg.bracket_elements(x, y), {2: 1}),
        ):
            assert got == expected and all(got.values())

    def test_abelian_is_addition(self):
        alg = osculating_at(step3_flag(), (0, 0, 0), 2)
        x = {0: Fraction(1), 1: Fraction(-2), 2: Fraction(3)}
        y = {0: Fraction(4), 1: Fraction(1, 2)}
        assert bch(alg, x, y) == {0: 5, 1: Fraction(-3, 2), 2: 3}

    def test_associativity(self, step4_alg):
        rng = random.Random(17)
        for _ in range(10):
            x, y, z = (random_element(rng, step4_alg.dim, -2, 2) for _ in range(3))
            left = bch(step4_alg, bch(step4_alg, x, y), z)
            right = bch(step4_alg, x, bch(step4_alg, y, z))
            assert left == right


@pytest.mark.parametrize(
    "call",
    [
        lambda alg: alg.bracket_elements({3: 1}, {0: 1}),
        lambda alg: bch(alg, {0: 1}, {-1: 1}),
        lambda alg: alg.basis_vector(3),
        lambda alg: GradedSubalg(parent=alg, spans=((), ())).contains({5: 1}),
    ],
)
def test_a_key_outside_the_basis_raises(heis_alg, call):
    with pytest.raises(ValueError):
        call(heis_alg)


# -- the group law against the Dynkin series summed per block sequence ----------

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture(scope="module")
def doc_algebras(tmp_path_factory):
    """The algebras at bound 2 at each problem's base point."""
    paths = {name: PROBLEMS / f"{name}.json" for name in ("heisenberg", "example2")}
    docs = {
        "free24": free_nilpotent_problem(2, 4),
        "free33": free_nilpotent_problem(3, 3),
        "free25": free_nilpotent_problem(2, 5),
        "filiform8": filiform_problem(8),
    }
    base = tmp_path_factory.mktemp("docs")
    for name, doc in docs.items():
        paths[name] = base / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    algebras = {}
    for name, path in paths.items():
        spec = load_problem(str(path))
        algebras[name] = osculating_at(spec.filtration, spec.submanifold.base_point, 2)
    return algebras


def reference_dynkin_blocks(order):
    """Block sequences ((r1,s1),...,(rn,sn)), each block nonzero, total
    letter count between 1 and order."""
    out = []

    def rec(blocks, letters_left):
        if blocks:
            out.append(tuple(blocks))
        for ri in range(letters_left + 1):
            for si in range(letters_left - ri + 1):
                if ri + si:
                    blocks.append((ri, si))
                    rec(blocks, letters_left - ri - si)
                    blocks.pop()

    rec([], order)
    return out


def reference_bch(algebra, x, y):
    """Oracle: the Dynkin series on dense vectors, one right-nested bracket
    word per block sequence, with the bracket read off structure by
    antisymmetry."""
    dim = algebra.dim

    def bracket(a, b):
        out = [Fraction(0)] * dim
        for (u, v), vec in algebra.structure.items():
            c = a[u] * b[v] - a[v] * b[u]
            for w, k in vec.items():
                out[w] += c * k
        return out

    args = tuple([z.get(w, Fraction(0)) for w in range(dim)] for z in (x, y))
    acc = [Fraction(0)] * dim
    for blocks in reference_dynkin_blocks(algebra.order):
        letters, fact = [], 1
        for ri, si in blocks:
            letters += [0] * ri + [1] * si
            fact *= math.factorial(ri) * math.factorial(si)
        coeff = Fraction((-1) ** (len(blocks) - 1), len(blocks) * len(letters) * fact)
        val = args[letters[-1]]
        for letter in reversed(letters[:-1]):
            val = bracket(args[letter], val)
        for w, c in enumerate(val):
            acc[w] += coeff * c
    return {w: c for w, c in enumerate(acc) if c}


@given(st.sampled_from(["heisenberg", "example2", "free24", "free33"]), st.randoms())
@settings(max_examples=40, deadline=None)
def test_bch_matches_the_per_block_sum(doc_algebras, name, rng):
    algebra = doc_algebras[name]
    x, y = (
        {w: rng.choice(COEFFS) for w in range(algebra.dim) if rng.random() < 0.6}
        for _ in range(2)
    )
    assert bch(algebra, x, y) == reference_bch(algebra, x, y)


@pytest.mark.parametrize("name", ["free25", "filiform8"])
def test_group_law_at_steps_five_and_seven(doc_algebras, name):
    algebra = doc_algebras[name]
    assert algebra.order == {"free25": 5, "filiform8": 7}[name]
    rng = random.Random(28)
    for _ in range(3):
        x, y, z = (random_element(rng, algebra.dim, -2, 2) for _ in range(3))
        assert bch(algebra, bch(algebra, x, y), z) == bch(algebra, x, bch(algebra, y, z))
        assert bch(algebra, x, {w: -c for w, c in x.items()}) == {}
        assert bch(algebra, x, {}) == x


@pytest.fixture(scope="module")
def step3_weighting():
    return weighted_coordinates(check_clean(step3_flag(), ORIGIN3))


@pytest.fixture(scope="module")
def step4_weighting():
    return weighted_coordinates(check_clean(step4_flag(), ORIGIN3))


class TestAmbientModule:
    def test_class_pairs_step3(self, step3_weighting):
        # weights (1, 2, 3), z shifted by -x^2/2: the labels (p, s) at
        # depth 1 have weighted degree w_p - 1, and at depth 3 only dz
        # survives
        every = parse_vector_field("dx + x*dz + x*dy + y*dz + x^2*dz", CHART3)
        assert set(weighted_fiber_class(every, step3_weighting, 1)) == {
            (0, (0, 0, 0)),
            (1, (1, 0, 0)),
            (2, (0, 1, 0)),
            (2, (2, 0, 0)),
        }
        every = parse_vector_field("dz + x*dz + y*dz", CHART3)
        assert set(weighted_fiber_class(every, step3_weighting, 3)) == {(2, (0, 0, 0))}

    def test_class_of_vertical_field(self, step3_weighting):
        z_fld = parse_vector_field("dz", CHART3)
        cls = weighted_fiber_class(z_fld, step3_weighting, 3)
        assert cls == {(2, (0, 0, 0)): 1}
        assert not class_in_tangent_part(cls)
        # terms of weight above w_p - depth have no part in the class
        higher = parse_vector_field("dz + x*dz + y*dz", CHART3)
        assert weighted_fiber_class(higher, step3_weighting, 3) == cls

    def test_class_below_depth_is_none(self, step3_weighting):
        z_fld = parse_vector_field("dz", CHART3)
        assert weighted_fiber_class(z_fld, step3_weighting, 1) is None

    def test_depth_zero_is_not_a_level(self, step3_weighting):
        z_fld = parse_vector_field("dz", CHART3)
        with pytest.raises(ValueError, match="not a filtration level"):
            weighted_fiber_class(z_fld, step3_weighting, 0)

    def test_class_of_bracket_field(self, step4_weighting):
        b_fld = parse_vector_field("2*x*dz", CHART3)
        cls = weighted_fiber_class(b_fld, step4_weighting, 3)
        assert cls == {(2, (1, 0, 0)): 2}
        assert class_in_tangent_part(cls)

    def test_rational_coefficient_class(self, step3_weighting):
        # a chart whose third coordinate is z/(c + x): pushing x^2*dz there
        # gives the rational coefficient x^2/(c + x)
        x, y, z = (Poly.variable(3, i) for i in range(3))
        field = parse_vector_field("x^2*dz", CHART3)
        for c, expected in ((1, 1), (2, Fraction(1, 2))):
            den = Poly.const(3, c) + x
            w = step3_weighting
            rational = WeightedChart(
                w.clean,
                w.weights,
                forward=(x, y, RatFunc(z, den)),
                inverse=(x, y, z * den),
                corrections=(),
            )
            assert push_to_weighted(field, rational)[2] == RatFunc(x**2, den)
            # x^2/(1+x) expands to x^2 - x^3 + ..., weight-2 part is x^2
            cls = weighted_fiber_class(field, rational, 1)
            assert cls == {(2, (2, 0, 0)): expected}
            # the frozen denominator's constant term c is an int, and so
            # is the numerator's coefficient: their quotient is a Fraction
            assert all(type(v) is Fraction for v in cls.values())

    def test_class_values_on_the_singular_chart_are_fractions(self):
        # singular_chart.json has the rational chart t, a/(1 + t), b; its
        # classes read 1/3 and 3 off integer coefficients
        weighting = weighted_coordinates(
            check_clean(SINGULAR_CHART.filtration, SINGULAR_CHART.submanifold)
        )
        chart = SINGULAR_CHART.filtration.chart
        values = {}
        for text in ("dt", "(t + 1)*da", "da", "db", "a*db"):
            for depth in (1, 2):
                cls = weighted_fiber_class(parse_vector_field(text, chart), weighting, depth)
                values[(text, depth)] = cls
                assert cls is None or all(type(v) is Fraction for v in cls.values())
        assert values[("da", 1)] == {(1, (0, 0, 0)): Fraction(1, 3)}
        assert values[("a*db", 1)] == {(2, (0, 1, 0)): 3}
        assert values[("db", 1)] is None and values[("db", 2)] == {(2, (0, 0, 0)): 1}

    def test_axis_class_lies_in_tangent_part(self):
        x_fld = parse_vector_field("dx", CHART3)
        y_fld = parse_vector_field("dy + x*dz", CHART3)
        z_fld = parse_vector_field("dz", CHART3)
        filt = Filtration(CHART3, 2, ((x_fld, y_fld), (x_fld, y_fld, z_fld)))
        axis = Submanifold(CHART3, (0,), (0, 0, 0))
        weighting = weighted_coordinates(check_clean(filt, axis))
        cls = weighted_fiber_class(x_fld, weighting, 1)
        assert cls == {(2, (0, 1, 0)): -1}
        assert class_in_tangent_part(cls)


# -- fiber classes against the weight-part reading ------------------------------

SINGULAR_CHART = load_problem(
    str(Path(__file__).resolve().parent.parent / "problems" / "singular_chart.json")
)


def poly_weight_part(p, weights, degree):
    """The terms of p whose weighted degree is exactly degree."""
    return Poly(
        p.nvars,
        {mono: c for mono, c in p.terms.items() if weight_of(mono, weights) == degree},
    )


def reference_fiber_class(field, weighting, depth):
    """Oracle: the labels sorted in grlex order per position, and each
    component read off the weight part of the frozen numerator, divided by
    the frozen denominator's constant term."""
    n = weighting.dim
    k0 = weighting.submanifold.dim
    fiber_weights = weighting.weights[k0:]
    pairs = []
    for p in range(n):
        target = weighting.weights[p] - depth
        exact = [
            (0,) * k0 + s
            for s in weighted_multiindices(fiber_weights, target)
            if weight_of(s, fiber_weights) == target
        ]
        pairs.extend((p, phi) for phi in sorted(exact, key=grlex_key))
    pushed = push_to_weighted(field, weighting)
    if vf_degree_in_chart(pushed, weighting) < -depth:
        return tuple(pairs), None
    base = weighting.base_point_weighted()
    images = [
        Poly.const(n, base[p]) if weighting.weights[p] == 0 else Poly.variable(n, p)
        for p in range(n)
    ]
    comps = []
    for p, phi in pairs:
        frozen = pushed[p].subst(images)
        if isinstance(frozen, Poly):
            num, c0 = frozen, Fraction(1)
        else:
            num, c0 = frozen.num, frozen.den.terms[(0,) * n]
        part = poly_weight_part(num, weighting.weights, weighting.weights[p] - depth)
        comps.append(part.terms.get(phi, Fraction(0)) * (1 / Fraction(c0)))
    return tuple(pairs), tuple(comps)


@given(st.integers(0, 2**32), st.sampled_from([None, 1, 2]))
@settings(max_examples=12, deadline=None)
def test_fiber_classes_match_the_weight_part_reading(seed, t):
    # t None is singular_chart.json; otherwise a pushed-forward model with
    # N = {a = b = c = 0} at that t, whose weighted chart has denominators
    rng = random.Random(seed)
    if t is None:
        filt, sub = SINGULAR_CHART.filtration, SINGULAR_CHART.submanifold
    else:
        filt = pushed_forward_model(rng)
        sub = Submanifold(CHART_TABC, (0,), (t, 0, 0, 0))
    weighting = weighted_coordinates(check_clean(filt, sub))
    n = filt.chart.dim
    fields = list(filt.generators(filt.order))
    fields += [g.scale(random_poly(rng, n, 2)) for g in fields]
    for depth in range(1, filt.order + 1):
        for field in fields:
            pairs, expected = reference_fiber_class(field, weighting, depth)
            assert weighted_fiber_class(field, weighting, depth) == (
                None if expected is None else {label: c for label, c in zip(pairs, expected) if c}
            )


def test_fiber_classes_match_the_weight_part_reading_on_every_generator():
    # every generator at every depth, on each problem file under problems/
    # and on the first 12 pushed-forward models of seed 20261 at t = 1 and 2
    inputs = []
    for path in sorted(PROBLEMS.glob("*.json")):
        spec = load_problem(str(path))
        inputs.append((path.name, spec.filtration, spec.submanifold))
    rng = random.Random(20261)
    for k in range(12):
        filt = pushed_forward_model(rng)
        for t in (1, 2):
            inputs.append((f"model{k}_t{t}", filt, Submanifold(CHART_TABC, (0,), (t, 0, 0, 0))))
    compared = 0
    for name, filt, sub in inputs:
        clean = check_clean(filt, sub)
        if clean.verdict != "pass":
            continue
        weighting = weighted_coordinates(clean)
        for depth in range(1, filt.order + 1):
            for field in filt.generators(filt.order):
                pairs, expected = reference_fiber_class(field, weighting, depth)
                assert weighted_fiber_class(field, weighting, depth) == (
                    None
                    if expected is None
                    else {label: c for label, c in zip(pairs, expected) if c}
                ), name
                compared += 1
    assert compared >= 100


# -- centred chart against recentred columns ------------------------------------


def _recentred_membership_solve(leading, lower, ideal_gens, point, degree_bound, target):
    """Oracle: the quotient solve in the original chart, with polynomial
    multiples of the lower fields and ideal columns (x^beta - m^beta) * g."""
    n = len(point)
    monos = monomials_up_to(n, degree_bound)
    reach = fields_degree([target]) if target is not None else 0
    rows = ModuleRows([*leading, *lower, *ideal_gens], monos, n, reach)
    cols = [rows.entries(g) for g in leading]
    cols.extend(multiple_columns(rows, lower, monos))
    for g in ideal_gens:
        for beta in monos:
            if sum(beta) == 0:
                continue
            m_beta = math.prod((p**e for p, e in zip(point, beta)), start=Fraction(1))
            factor = Poly.term(n, beta, 1) - Poly.const(n, m_beta)
            cols.append(rows.entries(g.scale(factor)))
    solution = module_solve(cols, rows.entries(target) if target is not None else None)
    if solution is None:
        return None
    k = len(leading)
    if target is None:
        return RowEchelon(
            {c: x for c, x in vec.items() if c < k} for vec in solution.nullspace
        ).reduced_rows()
    for vec in solution.nullspace:
        assert all(c >= k for c in vec), "chosen basis is dependent at this degree bound"
    return tuple(solution.particular.get(c, Fraction(0)) for c in range(k))


def _tangency_columns(gens, submanifold, monos, degree_bound):
    """The columns x^beta * g_j for beta in monos, cut to the fiber
    components' entries on N."""
    n = submanifold.chart.dim
    fiber = submanifold.fiber_indices
    rows = ModuleRows(gens, monos, n, 0)

    def on_fiber_of_n(key):
        a, mono = rows.keys.unpack(key)
        return a in fiber and not any(mono[f] for f in fiber)

    return [
        {key: value for key, value in col.items() if on_fiber_of_n(key)}
        for col in multiple_columns(rows, gens, monos)
    ]


def _all_variable_tangency(gens, submanifold, degree_bound):
    """Oracle: tangent combinations with unknowns on monomials in every
    variable, not only in N's."""
    n = submanifold.chart.dim
    monos = monomials_up_to(n, degree_bound)
    cols = _tangency_columns(gens, submanifold, monos, degree_bound)
    return [
        unpack_reference(vec, len(gens), monos, n)
        for vec in module_solve(cols).nullspace
    ]


@st.composite
def filtrations_at_points(draw):
    """A filtration of order 2-3 on 2-3 variables, a submanifold whose base
    point is nonzero on a tangent coordinate, and a degree bound 0-3."""
    n = draw(st.integers(2, 3))
    chart = CHARTS[n]
    monos = monomials_up_to(n, 2)
    poly = st.dictionaries(st.sampled_from(monos), st.sampled_from(COEFFS), max_size=2)
    field = st.lists(poly, min_size=n, max_size=n).map(
        lambda cs: VectorField(chart, [Poly(n, c) for c in cs])
    )
    order = draw(st.integers(2, 3))
    levels = [draw(st.lists(field, min_size=1, max_size=2)) for _ in range(order)]
    tangent = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    point = [Fraction(0)] * n
    for idx in tangent:
        point[idx] = draw(coord)
    point[tangent[0]] = draw(st.sampled_from(COEFFS))
    bound = draw(st.integers(0, 3))
    return Filtration(chart, order, levels), Submanifold(chart, tangent, point), bound


@given(filtrations_at_points())
@settings(max_examples=50, deadline=None)
def test_centred_chart_matches_recentred_columns(case):
    filt, sub, bound = case
    m = sub.base_point
    alg = osculating_at(filt, m, bound)
    degrees = []
    for depth in range(1, filt.order + 1):
        cands = filt.generators(depth)
        lower = filt.generators(depth - 1) if depth > 1 else ()
        relations = _recentred_membership_solve(cands, lower, cands, m, bound, None)
        span = RowEchelon(relations)
        basis = [j for j in range(len(cands)) if span.add({j: Fraction(1)})]
        degrees.extend([-depth] * len(basis))
        block = alg.level_indices(depth)
        assert [alg.representatives[u] for u in block] == [cands[j] for j in basis]
        # each candidate minus its class is a relation
        span = RowEchelon(relations)
        for j, cls in enumerate(alg.candidate_classes[depth - 1]):
            assert all(u in block for u in cls)
            rest = {j: Fraction(1)}
            for b, u in zip(basis, block):
                rest[b] = rest.get(b, Fraction(0)) - cls.get(u, 0)
            assert span.contains(rest)
    assert alg.degrees == tuple(degrees)

    structure = alg.structure
    unverified = []
    for u in range(alg.dim):
        for v in range(u + 1, alg.dim):
            q = -(alg.degrees[u] + alg.degrees[v])
            if q > filt.order:
                continue
            block = alg.level_indices(q)
            coords = _recentred_membership_solve(
                [alg.representatives[w] for w in block],
                filt.generators(q - 1) if q > 1 else (),
                filt.generators(q),
                m,
                bound,
                lie_bracket(alg.representatives[u], alg.representatives[v]),
            )
            if coords is None:
                unverified.append((u, v))
                assert (u, v) not in structure
                continue
            vec = {w: c for w, c in zip(block, coords) if c}
            assert structure.get((u, v), vec) == vec
            assert ((u, v) in structure) == bool(vec)
    assert alg.unverified == tuple(unverified)

    tangent = tangent_subalg(filt, sub, bound, parent=alg)
    for depth in range(1, filt.order + 1):
        vecs = []
        for combo in _all_variable_tangency(filt.generators(depth), sub, bound):
            acc = [Fraction(0)] * alg.dim
            for u, cls in zip(combo, alg.candidate_classes[depth - 1]):
                for w, c in cls.items():
                    acc[w] += u.eval(m) * c
            vecs.append(acc)
        assert tangent.spans[depth - 1] == RowEchelon(vecs).reduced_rows()


# -- one span across depths against one span per depth -------------------------


def per_depth_osculating_at(filtration, point, degree_bound):
    """Oracle: the osculating algebra with a span of its own per depth, each
    holding the lower fields and the level's fields times the nonconstant
    monomials, as computed before one span served every depth."""
    n = filtration.chart.dim
    order = filtration.order
    shift = [Poly.variable(n, i) + Poly.const(n, v) for i, v in enumerate(point)]
    centred = [
        VectorField(g.chart, [c.subst(shift) for c in g.coeffs])
        for g in filtration.generators(order)
    ]
    levels = [centred[: len(filtration.generators(d))] for d in range(1, order + 1)]
    top = fields_degree(centred)
    ideal_monos = monomials_up_to(n, degree_bound)[1:]
    rows = ModuleRows(centred, ideal_monos, n, 2 * top - 1)
    keys = rows.keys

    def class_of(rest):
        if any(key < keys.marker(0) for key in rest):
            return None
        return {keys.unpack(key)[0] - n: -x for key, x in rest.items()}

    spans, level_basis, level_classes = [], [], []
    for depth in range(1, order + 1):
        cands = levels[depth - 1]
        lower = levels[depth - 2] if depth > 1 else ()
        span = RowEchelon(rows.entries(g) for g in lower)
        for col in multiple_columns(rows, cands, ideal_monos):
            span.add(col)
        basis, classes = [], []
        for j, g in enumerate(cands):
            rest = span.reduce(rows.entries(g))
            cls = class_of(rest)
            if cls is None:
                cls = {len(basis): Fraction(1)}
                span.add({**rest, keys.marker(len(basis)): Fraction(1)})
                basis.append(j)
            classes.append(cls)
        spans.append(span)
        level_basis.append(basis)
        level_classes.append(classes)

    offsets, degrees, reps, centred_reps = [], [], [], []
    for depth in range(1, order + 1):
        offsets.append(len(degrees))
        for j in level_basis[depth - 1]:
            degrees.append(-depth)
            reps.append(filtration.generators(depth)[j])
            centred_reps.append(levels[depth - 1][j])
    total = len(degrees)

    def embed(cls, offset):
        return {offset + pos: c for pos, c in cls.items()}

    structure, unverified = {}, []
    for u in range(total):
        for v in range(u + 1, total):
            q = -(degrees[u] + degrees[v])
            if q > order:
                continue
            target = lie_bracket(centred_reps[u], centred_reps[v])
            cls = class_of(spans[q - 1].reduce(rows.entries(target)))
            if cls is None:
                unverified.append((u, v))
            elif cls:
                structure[u, v] = embed(cls, offsets[q - 1])
    return GradedLieAlg(
        order=order,
        degrees=tuple(degrees),
        representatives=tuple(reps),
        structure=structure,
        unverified=tuple(unverified),
        candidate_classes=tuple(
            tuple(embed(cls, offsets[d]) for cls in level_classes[d]) for d in range(order)
        ),
    )


@given(filtrations_at_points())
@settings(max_examples=100, deadline=None)
# at (-2, 0) the level -2 candidate y*dx lies in m*H_{-1}: the level -1
# multiple y*dx of -2*dx holds its key, and joins at depth 2
@example(
    (
        Filtration(
            CHARTS[2],
            2,
            [[parse_vector_field("-2*dx", CHARTS[2])], [parse_vector_field("-2*y*dx", CHARTS[2])]],
        ),
        Submanifold(CHARTS[2], (0,), (-2, 0)),
        1,
    )
)
def test_one_span_matches_a_span_per_depth(case):
    filt, sub, bound = case
    alg = osculating_at(filt, sub.base_point, bound)
    expected = per_depth_osculating_at(filt, sub.base_point, bound)
    assert alg.degrees == expected.degrees
    assert alg.representatives == expected.representatives
    assert alg.structure == expected.structure
    assert alg.unverified == expected.unverified
    assert alg.candidate_classes == expected.candidate_classes
    # the sparse form: no stored map holds a zero entry
    classes = [cls for level in alg.candidate_classes for cls in level]
    assert all(all(vec.values()) for vec in [*alg.structure.values(), *classes])


@pytest.mark.parametrize(
    "filt, point",
    [(heisenberg(), (0, 0, 0)), (step4_flag(), (1, 0, 0)), (step3_flag(), (0, 2, 0))],
)
def test_the_oracle_agrees_on_the_frozen_examples(filt, point):
    for bound in range(4):
        assert osculating_at(filt, point, bound) == per_depth_osculating_at(filt, point, bound)


@pytest.mark.parametrize("t", [1, 2])
def test_the_oracle_agrees_on_pushed_forward_models(t):
    # N = {a = b = c = 0}, at the base point and shifted along N: the
    # multiples of a generator share keys with those of other levels
    rng = random.Random(20261)
    for filt in [pushed_forward_model(rng) for _ in range(12)]:
        for point in ((t, 0, 0, 0), (t + Fraction(1, 2), 0, 0, 0)):
            for bound in range(3):
                expected = per_depth_osculating_at(filt, point, bound)
                assert osculating_at(filt, point, bound) == expected


def test_the_oracle_agrees_on_free_nilpotent_2_4(tmp_path):
    path = tmp_path / "free_2_4.json"
    path.write_text(json.dumps(free_nilpotent_problem(2, 4)))
    spec = load_problem(str(path))
    for bound in range(5):
        expected = per_depth_osculating_at(spec.filtration, spec.submanifold.base_point, bound)
        assert osculating_at(spec.filtration, spec.submanifold.base_point, bound) == expected


class CountingAdds(RowEchelon):
    """A RowEchelon that counts the rows offered to its add."""

    adds = 0

    def add(self, row):
        type(self).adds += 1
        return super().add(row)


def test_the_span_takes_only_the_rows_its_questions_reach(monkeypatch):
    # cartan235 at bound 3: 385 multiples x^alpha * g are on offer, and the
    # candidates, brackets and unit rows reach 6 of them
    monkeypatch.setattr(osculating, "RowEchelon", CountingAdds)
    CountingAdds.adds = 0
    spec = load_problem(str(PROBLEMS.parent / "bench" / "problems" / "cartan235.json"))
    alg = osculating_at(spec.filtration, spec.submanifold.base_point, 3)
    assert alg.graded_dims() == (2, 1, 2)
    assert CountingAdds.adds <= 40


def test_osculating_at_the_origin_translates_nothing(monkeypatch):
    # the generators are centred at the point; at the origin they are
    # already, so _centred makes no substitute call, and at a shifted point
    # it makes one for every coefficient of every generator
    calls = []
    substitute = osculating.substitute

    def counting_substitute(polys, images):
        calls.append(len(polys))
        return substitute(polys, images)

    monkeypatch.setattr(osculating, "substitute", counting_substitute)
    spec = load_problem(str(PROBLEMS.parent / "bench" / "problems" / "cartan235.json"))
    assert not any(spec.submanifold.base_point)
    alg = osculating_at(spec.filtration, spec.submanifold.base_point, 3)
    assert alg.graded_dims() == (2, 1, 2)
    assert calls == []
    for filt, point in ((heisenberg(), (1, 0, 0)), (step4_flag(), (1, Fraction(-1, 2), 2))):
        calls.clear()
        osculating_at(filt, point, 1)
        assert calls == [3 * len(filt.generators(filt.order))]


@given(filtrations_at_points())
@settings(max_examples=30, deadline=None)
def test_centred_fields_are_the_binomially_shifted_fields(case):
    filt, sub, _ = case
    gens = filt.generators(filt.order)
    point = sub.base_point
    centred = osculating._centred(gens, point)
    assert [g.chart for g in centred] == [g.chart for g in gens]
    assert [list(g.coeffs) for g in centred] == [
        [translate_reference(c, point) for c in g.coeffs] for g in gens
    ]
    back = osculating._centred(centred, [-p for p in point])
    assert back == tuple(gens)


def test_a_negative_degree_bound_is_refused():
    # it used to give the algebra of bound 0
    with pytest.raises(ValueError, match="degree bound must be non-negative, got -1"):
        osculating_at(heisenberg(), (0, 0, 0), -1)


def test_a_float_point_is_refused():
    # it used to run on the float's binary expansion as a Fraction
    with pytest.raises(TypeError, match="got float"):
        osculating_at(heisenberg(), (0.1, 0.0, 0.0), 1)
    exact = osculating_at(heisenberg(), (Fraction(1, 10), 0, 0), 1)
    assert exact.graded_dims() == osculating_at(heisenberg(), (0, 0, 0), 1).graded_dims()


def test_osculating_builds_one_span_and_tangency_one_system(monkeypatch):
    # four depths on step4_flag: one span in place of one per depth, and
    # one tangency elimination in place of one per depth
    monkeypatch.setattr(osculating, "RowEchelon", CountingRowEchelon)
    CountingRowEchelon.built = 0
    alg = osculating_at(step4_flag(), (0, 0, 0), 2)
    assert CountingRowEchelon.built == 1
    assert alg.graded_dims() == (1, 1, 1, 1)
    monkeypatch.undo()
    monkeypatch.setattr(lieflt, "RowEchelon", CountingRowEchelon)
    CountingRowEchelon.built = 0
    tangent_subalg(step4_flag(), Submanifold(CHART3, (0,), (0, 0, 0)), 2, parent=alg)
    assert CountingRowEchelon.built == 1


@given(filtrations_at_points())
@settings(max_examples=50, deadline=None)
def test_one_tangency_solve_matches_one_per_depth(case):
    filt, sub, bound = case
    order = filt.order
    prefixes = [len(filt.generators(depth)) for depth in range(1, order + 1)]
    batched = tangency_solve(filt.generators(order), sub, bound, prefixes)
    for depth, k in enumerate(prefixes, start=1):
        gens = filt.generators(depth)
        assert batched[depth - 1] == tangency_solve(gens, sub, bound, [k])[0]
        # the per-depth system as it was assembled before: every column
        # of the generators, cut to the fiber entries on N
        n = filt.chart.dim
        monos = [
            m for m in monomials_up_to(n, bound) if not any(m[f] for f in sub.fiber_indices)
        ]
        cols = _tangency_columns(gens, sub, monos, bound)
        assert batched[depth - 1] == [
            unpack_reference(vec, k, monos, n) for vec in module_solve(cols).nullspace
        ]
