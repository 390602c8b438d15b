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
# norms of the points tested (see within_tolerance); also the chain check's slack
MEMBERSHIP_TOL = 1e-9


def as_gamma(value, name="gamma"):
    """A step size or Minty parameter as a positive finite float."""
    gamma = float(value)
    if not 0.0 < gamma < INF:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return gamma


def check_finite(stack, name):
    """``stack`` itself when every entry is finite; otherwise ValueError naming it.

    Counts the finite entries, the verdict of ``np.isfinite(stack).all()`` at
    about half its cost on a short vector; a sum would overflow on finite input.
    """
    if np.count_nonzero(np.isfinite(stack)) != stack.size:
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


def graph_chain(A, points, label):
    """:func:`as_pairs` of ``points``, each checked in gr A by ``A.graph_kernel``.

    ValueError names the first pair outside the graph as ``<label> i``.
    """
    pairs = as_pairs(points, A.dim)
    for i, (a, a_star) in enumerate(pairs, 1):
        if not A.graph_kernel(a, a_star):
            raise ValueError(f"{label} {i} is not in the graph of {A.name}")
    return pairs


def chain_sum(x, x_star, pairs):
    """sum_k <a_k - x, a_{k-1}* - a_k*> over the pairs (a_k, a_k*), with a_0* = x*.

    Each term is a product of differences, so a chain near (x, x*) keeps its
    low digits where the raw pairings <a_k, a_k*> would cancel.
    """
    total = inner(pairs[0][0] - x, x_star - pairs[0][1])
    for k in range(1, len(pairs)):
        total += inner(pairs[k][0] - x, pairs[k - 1][1] - pairs[k][1])
    return total


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


def within_tolerance(err, norms):
    """``err <= MEMBERSHIP_TOL * (1 + sum of norms)``: the one membership rule.

    The tolerance scales with the norms of the points tested, so it stays
    meaningful for large inputs.  Where the scale overflowed to +inf only
    err == 0 is a member: a norm too large to square leaves any other error
    undecided, and undecided is not.  It runs on Python floats (one bool)
    and on arrays (row by row); it reads ``norms`` one at a time and scales
    an array in place, so a lazy ``map`` keeps few norm-sized arrays alive.
    """
    scale = 1.0
    for norm in norms:
        scale = scale + norm
    scale *= MEMBERSHIP_TOL
    return (err <= scale) & ((scale < INF) | (err == 0.0))


def within_membership(err, *vectors):
    """:func:`within_tolerance` on the norms of points or stacks, row by row."""
    return within_tolerance(err, map(row_norm, vectors))
