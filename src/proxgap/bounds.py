"""Fenchel-Young gaps, Carlier lower bounds, and the Minty decomposition.

The chain that everything here revolves around, for f proper lsc convex
and A = df:

    G_f(x, x*)  >=  F_A(x, x*) - <x, x*>  >=  C_{A,gamma}(x, x*)  >=  0

with G_f(x, x*) = f(x) + f*(x*) - <x, x*> and
C_{A,gamma}(x, x*) = ||x - J_{gamma A}(x + gamma x*)||^2 / gamma.

The gap is each entry's closed form ``f.gap_kernel``, which does not
cancel near the graph as the sum f(x) + f*(x*) - <x, x*> does.
``bound_report`` stacks x, a, x, x*, x*, a* once: the gap kernel takes the
first three rows against the last three, ``row_norm`` takes all six, and
:func:`~proxgap.core.within_tolerance` decides each flag, on floats or rows.

``carlier_bound``, ``minty_decompose``, ``dual_carlier_check`` and
``bound_report`` take one point, or ``(m, dim)`` stacks of x and x* with a
float or ``(m,)`` gamma and then return ``(m,)`` arrays in place of floats
and bools.  Each public function validates its inputs once and hands the
validated arrays to the private helpers below, which trust them.  ``_minty``,
the one place that forms a Minty point z = x + gamma x* and checks it
finite, gives z and J(z) from the public map for one point or the kernel for
a stack.  ``_minty`` and ``_carlier`` are row-wise: one point with a float
gamma, or an ``(m, dim)`` stack with an ``(m, 1)`` column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import INF, MEMBERSHIP_TOL, as_gamma, as_vector, check_finite, inner, row_norm
from .core import within_tolerance


def gap(f, x, x_star):
    """Fenchel-Young gap G_f(x, x*) = f(x) + f*(x*) - <x, x*>, from ``f.gap_kernel``.

    Nonnegative for proper lsc convex f; zero exactly on the graph of df.
    May be +inf when either argument leaves the corresponding domain.
    """
    return float(f.gap_kernel(as_vector(x, f.dim, "x"), as_vector(x_star, f.dim, "x_star")))


def carlier_bound(A, gamma, x, x_star):
    """C_{A,gamma}(x, x*) = ||x - J_{gamma A}(x + gamma x*)||^2 / gamma.

    Nonnegative; +inf where the quotient overflows, as for the subspace of
    basis (1, 1) at gamma = 1e-320, x = (1, 2) and x* = (0.5, -1).
    """
    gamma, x, x_star = _query(A.dim, gamma, x, x_star)
    resolvent = A.resolvent if x.ndim == 1 else A.resolvent_kernel
    return _carlier(x, _minty(resolvent, gamma, x, x_star)[1], gamma)


@dataclass(frozen=True)
class MintyPair:
    """The graph point (a, a*) produced by the Minty parametrization.

    a = J_{gamma A}(x + gamma x*) and a* = (x + gamma x* - a)/gamma, so
    x + gamma x* = a + gamma a* and (a, a*) lies in gr A.
    """

    x: np.ndarray
    x_star: np.ndarray
    gamma: float
    a: np.ndarray
    a_star: np.ndarray


def minty_decompose(A, gamma, x, x_star):
    """Resolve (x, x*) into its Minty graph point at parameter gamma."""
    gamma, x, x_star = _query(A.dim, gamma, x, x_star)
    one = x.ndim == 1
    z, a = _minty(A.resolvent if one else A.resolvent_kernel, gamma, x, x_star)
    return MintyPair(x, x_star, gamma if one else gamma[:, 0], a, (z - a) / gamma)


def _query(dim, gamma, x, x_star):
    """gamma, x and x* validated in that order; a stack's gamma as an ``(m, 1)`` column."""
    # x.ndim, where x is an array, costs a tenth of np.ndim(x), as a type test does for gamma
    if (x.ndim if isinstance(x, np.ndarray) else np.ndim(x)) != 2:
        return as_gamma(gamma), as_vector(x, dim, "x"), as_vector(x_star, dim, "x_star")
    m = len(x)
    scalar = type(gamma) is float or np.ndim(gamma) == 0
    gamma = np.full(m, as_gamma(gamma)) if scalar else _rows(gamma, (m,), "gamma")
    return gamma[:, None], _rows(x, (m, dim), "x"), _rows(x_star, (m, dim), "x_star")


def _rows(value, shape, name):
    """``value`` as float64 rows of ``shape``, ``(m, dim)`` finite points or ``(m,)``
    positive finite gammas; else ValueError naming ``name`` and its first bad row."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:  # row 0 is too wide or narrow, or the first unpaired row
        row = min(len(value), shape[0]) if value.shape[1:] == shape[1:] else 0
        raise ValueError(f"{name} has shape {value.shape}, expected {shape} (first bad row {row})")
    ok = (value > 0.0) & (value < INF) if value.ndim == 1 else np.isfinite(value)
    if np.count_nonzero(ok) != value.size:  # the first bad row only where there is one
        ok = ok if value.ndim == 1 else ok.all(axis=1)
        i, must = int(ok.argmin()), "positive and finite" if value.ndim == 1 else "finite"
        raise ValueError(f"{name} row {i} must be {must}, got {value[i].tolist()!r}")
    return value


def _minty(resolvent, gamma, x, x_star):
    z = x + gamma * x_star
    if z.ndim == 1:
        check_finite(z, "z")
    elif np.count_nonzero(np.isfinite(z)) != z.size:
        # a stack names its first row that is not finite, and that row's gamma
        i = int(np.isfinite(z).all(axis=1).argmin())
        raise ValueError(f"z has non-finite entries at gamma = {float(gamma[i, 0])!r}: {z[i]!r}")
    return z, resolvent(gamma, z)


def _carlier(x, a, gamma):
    d = x - a
    if isinstance(gamma, np.ndarray):  # an (m, 1) column divides the (m,) squared norms
        sq = np.vecdot(d, d)
        with np.errstate(over="ignore"):  # +inf where only the quotient overflows, as below
            return sq / gamma[:, 0]
    # d.dot(d) is the BLAS dot that vecdot's float64 loop calls: the same bits
    # in 0.4 us against 0.7 us.  Past ||d|| of about 1.3e154 it is +inf with
    # numpy's "overflow encountered in dot" warning; the quotient is divided
    # on Python floats, so where only it overflows it is +inf with no warning
    return float(d.dot(d)) / gamma


def dual_carlier_check(A, gamma, x, x_star):
    """Both sides of C_{A,gamma}(x, x*) = C_{A^{-1},1/gamma}(x*, x).

    The right side is computed on the inverse operator (closed forms when
    the catalog provides them), not by rearranging the left side.
    Returns (lhs, rhs).
    """
    gamma, x, x_star = _query(A.dim, gamma, x, x_star)
    one, inverse = x.ndim == 1, A.inverse()
    if one:
        mu = as_gamma(1.0 / gamma, "1/gamma")
    else:
        with np.errstate(over="ignore"):  # the row whose 1/gamma overflows is named
            mu = _rows(1.0 / gamma[:, 0], (len(x),), "1/gamma")[:, None]
    _, a = _minty(A.resolvent if one else A.resolvent_kernel, gamma, x, x_star)
    _, b = _minty(inverse.resolvent if one else inverse.resolvent_kernel, mu, x_star, x)
    return _carlier(x, a, gamma), _carlier(x_star, b, mu)


def fitzpatrick_bound(entry, x, x_star):
    """F(x, x*) - <x, x*> when the entry carries a closed form, else None.

    Never falls back to numerics; the sampled estimate lives in the
    oracle module.
    """
    if entry.fitzpatrick_gap is None:
        return None
    x, x_star = as_vector(x, entry.dim, "x"), as_vector(x_star, entry.dim, "x_star")
    return float(entry.fitzpatrick_gap(x, x_star))


def pair_inequality_check(f, x, x_star, y, y_star):
    """Both sides of G_f(x, x*) + G_f(y, y*) >= <y - x, x* - y*>.

    Equality holds exactly when y* is in df(x) and x* is in df(y).
    Returns (lhs, rhs).
    """
    x = as_vector(x, f.dim, "x")
    x_star = as_vector(x_star, f.dim, "x_star")
    y = as_vector(y, f.dim, "y")
    y_star = as_vector(y_star, f.dim, "y_star")
    lhs = float(f.gap_kernel(x, x_star) + f.gap_kernel(y, y_star))
    rhs = inner(y - x, x_star - y_star)
    return lhs, rhs


def bregman_distance(f, x, y):
    """D_f(x, y) = f(x) - f(y) - <x - y, grad f(y)>, as the gap G_f(x, grad f(y)).

    ``f.gap_kernel`` does not cancel for x near y, and is +inf where f(x) is.
    Requires a gradient witness on the entry; the witness itself may
    reject y outside the differentiability domain.
    """
    if f.gradient is None:
        raise ValueError(f"catalog entry '{f.name}' has no gradient witness")
    x = as_vector(x, f.dim, "x")
    y = as_vector(y, f.dim, "y")
    return float(f.gap_kernel(x, f.gradient(y)))


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the bound chain at (x, x*, gamma).

    ``fitzpatrick`` is None when the entry has no closed form.
    ``gap_zero`` records Fenchel-Young equality (graph membership);
    ``gap_equals_carlier`` records the sharpness condition: the Minty
    point satisfies a in df*(x*) and (x + gamma x* - a)/gamma in df(x).
    A stack's report holds ``(m,)`` arrays in place of floats and bools.
    """

    x: np.ndarray
    x_star: np.ndarray
    gamma: float
    gap: float
    fitzpatrick: Optional[float]
    carlier: float
    gap_zero: bool
    gap_equals_carlier: bool


def bound_report(f, gamma, x, x_star):
    """Evaluate gap, Fitzpatrick gap, and Carlier bound at one query or a stack."""
    gamma, x, x_star = _query(f.dim, gamma, x, x_star)
    one = x.ndim == 1

    z, a = _minty(f.prox if one else f.prox_kernel, gamma, x, x_star)
    # the gaps at (x, x*) and, for the sharpness test, at (a, x*) and (x, a*),
    # and the norms of these points, from one stack
    stack = np.array((x, a, x, x_star, x_star, (z - a) / gamma))
    norms, gaps = row_norm(stack), f.gap_kernel(stack[:3], stack[3:])
    norm_x, norm_a, _, norm_xs, _, norm_as = norms.tolist() if one else norms
    gap_x, gap_a, gap_as = gaps.tolist() if one else gaps
    fitz = f.fitzpatrick_gap
    if fitz is not None:  # f may mark its Fitzpatrick gap ``equals_gap``: the gap itself
        fitz = gap_x if getattr(fitz, "equals_gap", False) else fitz(x, x_star)
    sharp = within_tolerance(gap_a, (norm_a, norm_xs))
    if sharp is not False:  # one point skips the second test where the first fails
        sharp = sharp & within_tolerance(gap_as, (norm_x, norm_as))

    return BoundReport(
        x=x,
        x_star=x_star,
        gamma=gamma if one else gamma[:, 0],
        gap=gap_x,
        fitzpatrick=float(fitz) if one and fitz is not None else fitz,
        carlier=_carlier(x, a, gamma),
        gap_zero=within_tolerance(gap_x, (norm_x, norm_xs)),
        gap_equals_carlier=sharp,
    )


def chain_links(gap, fitz, carlier, slack):
    """Row by row, the masks (fitz <= gap, carlier <= min(gap, fitz), carlier >= 0).

    fitz None (no closed form) drops it from the chain.  Each comparison
    allows slack*(1 + |carlier|), +inf for a +inf carlier, which only a +inf
    gap and fitz then cap; NaN fails its links.  Plain operators keep the
    one-point call from :func:`chain_violation` cheap.
    """
    scale = slack * (1.0 + abs(carlier))
    capped = (carlier <= gap + scale) & ((carlier < INF) | (gap == INF))
    if fitz is None:
        return True, capped, carlier >= -scale
    # with the line above: carlier <= min(gap, fitz) + scale, as rounding keeps order
    capped &= (carlier <= fitz + scale) & ((carlier < INF) | (fitz == INF))
    return fitz <= gap + scale, capped, carlier >= -scale


def chain_violation(report):
    """Describe a violation of :func:`chain_links` at slack ``MEMBERSHIP_TOL``, or None."""
    gap, fitz, carlier = report.gap, report.fitzpatrick, report.carlier
    if carlier != carlier:
        return f"carlier {carlier!r} is not a number"
    fitz_ok, capped, nonnegative = chain_links(gap, fitz, carlier, MEMBERSHIP_TOL)
    if not fitz_ok:
        return f"fitzpatrick {fitz!r} exceeds gap {gap!r}"
    if not capped:
        return f"carlier {carlier!r} exceeds {gap if fitz is None else min(gap, fitz)!r}"
    if not nonnegative:
        return f"carlier {carlier!r} is negative"
    return None
