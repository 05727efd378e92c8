"""Seeded random generators shared by test modules.

Kept outside the package on purpose: production code never needs random
polynomials, and the acceptance suite must drive the same corpus as the
unit tests.
"""

from fractions import Fraction
import math
import random

from lieweights.exactalg import Poly
from lieweights.lieflt import Filtration, monomials_up_to
from lieweights.vfield import Chart, VectorField

COEFFS = tuple(Fraction(n, d) for n in (-2, -1, 1, 2) for d in (1, 2))

CHARTS = {
    1: Chart(("x",)),
    2: Chart(("x", "y")),
    3: Chart(("x", "y", "z")),
}


def random_poly(rng: random.Random, nvars: int, degree: int, max_terms: int = 3) -> Poly:
    monos = monomials_up_to(nvars, degree)
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        terms[rng.choice(monos)] = rng.choice(COEFFS)
    return Poly(nvars, terms)


def random_field(rng: random.Random, chart: Chart, degree: int) -> VectorField:
    return VectorField(
        chart, [random_poly(rng, chart.dim, degree) for _ in range(chart.dim)]
    )


def lift_identity_cases(seed: int, count: int):
    """(chart, order, X, Y, f, i, j) tuples with n <= 3, deg <= 2, r <= 3."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(1, 4)
        chart = CHARTS[n]
        r = rng.randrange(1, 4)
        x = random_field(rng, chart, 2)
        y = random_field(rng, chart, 2)
        f = random_poly(rng, n, 2)
        i = rng.randrange(0, r + 1)
        j = rng.randrange(0, r + 1)
        out.append((chart, r, x, y, f, i, j))
    return out


CHART_TABC = Chart(("t", "a", "b", "c"))
# (1, 3, 5) twice: among weights up to 5 it is the only triple in which a
# correction multiplies a corrected coordinate
WEIGHT_TRIPLES = [
    (1, 3, 5), (1, 3, 5), (1, 4, 5), (1, 2, 4), (1, 2, 3), (1, 1, 3), (2, 3, 5)
]


def _random_fiber_poly(rng, variables, degree):
    # every monomial carries a fiber variable, so the map preserves N
    out = Poly.zero(4)
    for _ in range(rng.randint(1, 3)):
        exps = [0, 0, 0, 0]
        for _ in range(rng.randint(1, degree)):
            exps[rng.choice(variables)] += 1
        if not any(exps[1:]):
            exps[rng.choice(variables[1:])] += 1
        coeff = rng.choice([-2, -1, Fraction(1, 2), 1, 3])
        out = out + Poly.term(4, tuple(exps), coeff)
    return out


def pushed_forward_model(rng: random.Random) -> Filtration:
    """The graded model s_a(t)*da, s_b(t)*db, s_c(t)*dc on (t, a, b, c),
    with weights drawn up to 5, pushed forward by the triangular map
    (t, a, b, c) -> (t, a, b + P(t, a), c + Q(t, a, b))."""
    weights = rng.choice(WEIGHT_TRIPLES)
    t, a, b, c = (Poly.variable(4, i) for i in range(4))
    p_map = _random_fiber_poly(rng, [0, 1], 2)
    q_map = _random_fiber_poly(rng, [0, 1, 2], 2)
    image = [t, a, b + p_map, c + q_map]
    b_back = b - p_map
    back = [t, a, b_back, c - q_map.subst([t, a, b_back, c])]
    fields = []
    for i in (1, 2, 3):
        scale = rng.choice([Poly.one(4), t, t + 1])
        coeffs = [(scale * image[j].diff(i)).subst(back) for j in range(4)]
        fields.append(VectorField(CHART_TABC, coeffs))
    levels = [
        tuple(f for f, wt in zip(fields, weights) if wt <= depth)
        for depth in range(1, weights[-1] + 1)
    ]
    return Filtration(CHART_TABC, weights[-1], levels)


def filiform_problem(n: int) -> dict:
    """The chained (Goursat) filiform model on x1..xn, as a problem document.

    Y_j = sum over k >= j + 2 of x1^(k-2-j)/(k-2-j)! dxk, and level -d lists
    dx1, Y_0, ..., Y_{d-1}; the order is n - 1.  N is the origin, where the
    weights are 1, 1, 2, ..., n - 1.
    """

    def term(e: int, k: int) -> str:
        if e == 0:
            return f"dx{k}"
        if e == 1:
            return f"x1*dx{k}"
        return f"1/{math.factorial(e)}*x1^{e}*dx{k}"

    ys = [
        " + ".join(term(k - 2 - j, k) for k in range(j + 2, n + 1))
        for j in range(n - 1)
    ]
    return {
        "variables": [f"x{i}" for i in range(1, n + 1)],
        "order": n - 1,
        "filtration": {str(-d): ["dx1", *ys[:d]] for d in range(1, n)},
        "submanifold": {"tangent": [], "base_point": ["0"] * n},
    }
