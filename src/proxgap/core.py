"""Scalar and vector primitives shared across the package.

Extended-real values are plain Python floats where ``math.inf`` stands for
+infinity.  Negative infinity and NaN are never legal values; helpers here
validate that convention at the boundaries where it matters.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf

# Absolute tolerance of every set- and graph-membership test, scaled by the
# norms of the points tested (see membership_scale); also the chain check's slack
MEMBERSHIP_TOL = 1e-9


def as_gamma(value, name="gamma"):
    """A step size or Minty parameter as a positive finite float."""
    gamma = float(value)
    if not 0.0 < gamma < INF:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return gamma


def check_finite(stack, name):
    """``stack`` itself when every entry is finite; otherwise ValueError naming it."""
    if not np.isfinite(stack).all():
        raise ValueError(f"{name} has non-finite entries: {stack!r}")
    return stack


def as_vector(coords, dim=None, name="vector"):
    """Coerce to a finite 1-D float64 array of positive length."""
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} must be a 1-D sequence with at least one entry")
    check_finite(x, name)
    if dim is not None and x.size != dim:
        raise ValueError(f"{name} has dimension {x.size}, expected {dim}")
    return x


def as_pairs(points, dim):
    """The pairs (a_i, a_i*) of ``points`` as finite arrays of dimension ``dim``.

    Raises when there are none; the names a_i and a_star_i count from 1.
    """
    pairs = [
        (as_vector(a, dim, f"a_{i}"), as_vector(a_star, dim, f"a_star_{i}"))
        for i, (a, a_star) in enumerate(points, 1)
    ]
    if not pairs:
        raise ValueError("points must contain at least one pair")
    return pairs


def parse_vector(text, name):
    """The reals of a comma-separated string such as ``"1,0.5"``."""
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"bad {name} '{text}': expected comma-separated reals") from None


def inner(x, y):
    """Euclidean inner product; raises on dimension mismatch."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch in inner product: {x.shape} vs {y.shape}")
    return float(np.dot(x, y))


def row_norm(x):
    """Euclidean norm of one point, or of each row of an ``(m, dim)`` stack.

    sqrt(vecdot(x, x)), which has the bits of ``np.linalg.norm`` for one
    point; +inf where the square sum overflows (norms above about 1.3e154).
    """
    return np.sqrt(np.vecdot(x, x))


def membership_scale(*vectors):
    """The membership tolerance scaled by the participating vector norms.

    Set-membership and graph-membership tests use
    MEMBERSHIP_TOL * (1 + sum of norms) so they stay meaningful for large inputs.
    Row-wise over stacks, like :func:`row_norm`.
    """
    scale = 1.0
    for v in vectors:
        scale = scale + row_norm(v)
    return MEMBERSHIP_TOL * scale


def within_membership(err, *vectors):
    """``err <= membership_scale(*vectors)``, row by row.

    Where the scale overflowed to +inf only err == 0 is a member: a norm too
    large to square leaves any other error undecided, and undecided is not.
    """
    scale = membership_scale(*vectors)
    return (err <= scale) & ((scale < INF) | (err == 0.0))
