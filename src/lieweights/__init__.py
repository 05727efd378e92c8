"""lieweights: exact weighted coordinates from singular Lie filtrations.

The package builds, from a filtration of vector-field modules on a
polynomial chart and a clean coordinate submanifold, the induced weighting
(weighted coordinates), verifies the jet-bundle flow-out description of the
associated subbundle, and computes osculating graded nilpotent Lie algebras.
All arithmetic is exact over the rationals.
"""

from .exactalg import Fraction, LinearSolution, Poly, RatFunc, linear_solve_exact
from .jets import JetChart, flowout_sample, q_dimension, q_membership
from .lieflt import (
    Filtration,
    Submanifold,
    check_bracket_compat,
    check_clean,
    weight_sequence,
)
from .osculating import (
    GradedLieAlg,
    GradedSubalg,
    bch,
    osculating_at,
    tangent_subalg,
    verify_hh,
)
from .vfield import Chart, VectorField, lie_bracket, parse_vector_field
from .weightcoord import WeightedChart, vf_filtration_degree, weighted_coordinates

__all__ = [
    "Chart",
    "Filtration",
    "Fraction",
    "GradedLieAlg",
    "GradedSubalg",
    "JetChart",
    "LinearSolution",
    "Poly",
    "RatFunc",
    "Submanifold",
    "VectorField",
    "WeightedChart",
    "bch",
    "check_bracket_compat",
    "check_clean",
    "flowout_sample",
    "lie_bracket",
    "linear_solve_exact",
    "osculating_at",
    "parse_vector_field",
    "q_dimension",
    "q_membership",
    "tangent_subalg",
    "verify_hh",
    "vf_filtration_degree",
    "weight_sequence",
    "weighted_coordinates",
]
