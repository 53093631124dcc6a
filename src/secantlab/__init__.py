"""secantlab: secant varieties of curves over prime fields.

Constructs embedded curve ideals, their secant variety ideals, minimal free
resolutions and Betti tables, and checks the computed invariants against
closed-form predictions.
"""

from .arith import DEFAULT_PRIME, PrimeField
from .poly import MonomialOrder, PolyRing, Polynomial, parse_polynomial
from .gb import (GroebnerBasis, Ideal, ResourceLimit, buchberger,
                 pair_budget)
from .ideal_ops import (ConeParametrization, PointNotOnVariety, PointedIdeal,
                        SecantSpec, secant_join, tangent_cone_multiplicity)
from .homalg import (BettiTable, HilbertData, ZeroIdeal, check_ndp,
                     hilbert_data, is_acm, koszul_dim, max_ndp_steps,
                     min_generator_degree, minimal_free_resolution,
                     projective_dimension, regularity)
from .curves import (CurveEmbedding, CurveModel, DegreeTooSmall,
                     DuplicatePoints, embed, parse_curve_file,
                     point_on_secant, rational_normal_curve, rr_basis,
                     sample_affine_points)
from .oracle import (HypothesisViolated, predicted_canonical_h0,
                     predicted_degree, predicted_multiplicity,
                     predicted_regularity, predictions, verify)

__all__ = [
    "DEFAULT_PRIME", "PrimeField",
    "MonomialOrder", "PolyRing", "Polynomial", "parse_polynomial",
    "GroebnerBasis", "Ideal", "ResourceLimit", "buchberger", "pair_budget",
    "ConeParametrization", "PointNotOnVariety", "PointedIdeal", "SecantSpec",
    "secant_join", "tangent_cone_multiplicity",
    "BettiTable", "HilbertData", "ZeroIdeal", "check_ndp", "hilbert_data",
    "is_acm", "koszul_dim", "max_ndp_steps", "min_generator_degree",
    "minimal_free_resolution", "projective_dimension", "regularity",
    "CurveEmbedding", "CurveModel", "DegreeTooSmall", "DuplicatePoints",
    "embed", "parse_curve_file", "point_on_secant", "rational_normal_curve",
    "rr_basis", "sample_affine_points",
    "HypothesisViolated", "predicted_canonical_h0", "predicted_degree",
    "predicted_multiplicity", "predicted_regularity", "predictions",
    "verify",
]

__version__ = "0.1.0"
