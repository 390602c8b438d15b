"""Numerical toolkit for Fenchel-Young gaps and proximal lower bounds.

The catalog provides convex functions and monotone operators with
closed-form proxes and conjugates; the bounds layer evaluates the chain

    gap >= Fitzpatrick gap >= Carlier bound >= 0

with its duality, Minty decomposition, and cyclic series refinements;
oracle and analysis layers supply brute-force cross-checks, gamma
asymptotics, and an algorithmic certificate demo.
"""

from .analysis import (
    BoundaryReport,
    ClassifyResult,
    LimitClass,
    PgmTrace,
    SweepResult,
    boundary_limit_regressions,
    classify_limit_infinity,
    classify_limit_zero,
    gamma_sweep,
    pgm_certificates,
)
from .bounds import (
    BoundReport,
    MintyPair,
    bound_report,
    bregman_distance,
    carlier_bound,
    dual_carlier_check,
    fitzpatrick_bound,
    gap,
    minty_decompose,
    pair_inequality_check,
)
from .catalog import (
    ConvexFunction,
    Operator,
    SetSpec,
    conjugate_function,
    make_burg,
    make_energy,
    make_rotator,
    make_shannon,
    make_subspace_indicator,
    orthonormal_basis,
    parse_spec,
    subdifferential_operator,
)
from .core import INF, MEMBERSHIP_TOL, inner
from .cyclic import (
    CyclicSequence,
    GammaSchedule,
    fitzpatrick_n_lower,
    generate_cyclic_sequence,
    ncyclic_identity_check,
    series_bound,
)
from .lambertw import lambert_w, lambert_w_exp
from .oracle import GridMax, GridSpec, numeric_conjugate, numeric_prox, sampled_fitzpatrick

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoundaryReport",
    "ClassifyResult",
    "ConvexFunction",
    "CyclicSequence",
    "GammaSchedule",
    "GridMax",
    "GridSpec",
    "INF",
    "LimitClass",
    "MEMBERSHIP_TOL",
    "MintyPair",
    "Operator",
    "PgmTrace",
    "SetSpec",
    "SweepResult",
    "bound_report",
    "boundary_limit_regressions",
    "bregman_distance",
    "carlier_bound",
    "classify_limit_infinity",
    "classify_limit_zero",
    "conjugate_function",
    "dual_carlier_check",
    "fitzpatrick_bound",
    "fitzpatrick_n_lower",
    "gamma_sweep",
    "gap",
    "generate_cyclic_sequence",
    "inner",
    "lambert_w",
    "lambert_w_exp",
    "make_burg",
    "make_energy",
    "make_rotator",
    "make_shannon",
    "make_subspace_indicator",
    "minty_decompose",
    "ncyclic_identity_check",
    "numeric_conjugate",
    "numeric_prox",
    "orthonormal_basis",
    "pair_inequality_check",
    "parse_spec",
    "pgm_certificates",
    "sampled_fitzpatrick",
    "series_bound",
    "subdifferential_operator",
]
