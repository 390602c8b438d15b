"""Numerical toolkit for Fenchel-Young gaps and proximal lower bounds.

The catalog provides convex functions and monotone operators with
closed-form proxes and conjugates; the bounds layer evaluates the chain

    gap >= Fitzpatrick gap >= Carlier bound >= 0

with its duality, Minty decomposition, and cyclic series refinements;
oracle and analysis layers supply brute-force cross-checks, gamma
asymptotics, and an algorithmic certificate demo.

Each public name is loaded from its submodule on first use (PEP 562), so
``import proxgap`` runs no submodule and a caller pays only for the
submodules it touches.
"""

import importlib

__version__ = "0.1.0"

# each public name, under the submodule that defines it
_EXPORTS = {
    "analysis": (
        "BoundaryReport",
        "ClassifyResult",
        "LimitClass",
        "PgmTrace",
        "SweepResult",
        "boundary_limit_regressions",
        "classify_limit_infinity",
        "classify_limit_zero",
        "gamma_sweep",
        "pgm_certificates",
    ),
    "bounds": (
        "BoundReport",
        "MintyPair",
        "bound_report",
        "bregman_distance",
        "carlier_bound",
        "dual_carlier_check",
        "fitzpatrick_bound",
        "gap",
        "minty_decompose",
        "pair_inequality_check",
    ),
    "catalog": (
        "ConvexFunction",
        "Operator",
        "SetSpec",
        "conjugate_function",
        "make_burg",
        "make_energy",
        "make_rotator",
        "make_shannon",
        "make_subspace_indicator",
        "orthonormal_basis",
        "parse_spec",
        "subdifferential_operator",
    ),
    "core": ("INF", "MEMBERSHIP_TOL", "inner"),
    "cyclic": (
        "CyclicSequence",
        "GammaSchedule",
        "fitzpatrick_n_lower",
        "generate_cyclic_sequence",
        "ncyclic_identity_check",
        "series_bound",
    ),
    "lambertw": ("lambert_w", "lambert_w_exp"),
    "oracle": ("GridMax", "numeric_conjugate", "numeric_prox", "sampled_fitzpatrick"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
