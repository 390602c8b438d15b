"""Fenchel-Young gaps, Carlier lower bounds, and the Minty decomposition.

The chain that everything here revolves around, for f proper lsc convex
and A = df:

    G_f(x, x*)  >=  F_A(x, x*) - <x, x*>  >=  C_{A,gamma}(x, x*)  >=  0

with G_f(x, x*) = f(x) + f*(x*) - <x, x*> and
C_{A,gamma}(x, x*) = ||x - J_{gamma A}(x + gamma x*)||^2 / gamma.

Each public function validates its inputs once and hands the validated
arrays to the private helpers below, which trust them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DEFAULT_TOLERANCES, INF, as_vector, inner, membership_scale


def gap(f, x, x_star):
    """Fenchel-Young gap G_f(x, x*) = f(x) + f*(x*) - <x, x*>.

    Nonnegative for proper lsc convex f; zero exactly on the graph of df.
    May be +inf when either argument leaves the corresponding domain.
    """
    return _gap(f, as_vector(x, f.dim, "x"), as_vector(x_star, f.dim, "x_star"))


def _gap(f, x, x_star):
    fx = f.value(x)
    fs = f.conjugate(x_star)
    if fx == INF or fs == INF:
        return INF
    return fx + fs - inner(x, x_star)


def _check_gamma(gamma):
    gamma = float(gamma)
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    return gamma


def carlier_bound(A, gamma, x, x_star):
    """C_{A,gamma}(x, x*) = ||x - J_{gamma A}(x + gamma x*)||^2 / gamma.

    Finite and nonnegative for every (x, x*) whenever the resolvent is
    everywhere defined, which holds for all catalog operators.
    """
    gamma = _check_gamma(gamma)
    x = as_vector(x, A.dim, "x")
    x_star = as_vector(x_star, A.dim, "x_star")
    return _carlier(_minty(A.resolvent, gamma, x, x_star))


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
    gamma = _check_gamma(gamma)
    x = as_vector(x, A.dim, "x")
    x_star = as_vector(x_star, A.dim, "x_star")
    return _minty(A.resolvent, gamma, x, x_star)


def _minty(resolvent, gamma, x, x_star):
    z = x + gamma * x_star
    a = resolvent(gamma, z)
    return MintyPair(x=x, x_star=x_star, gamma=gamma, a=a, a_star=(z - a) / gamma)


def _carlier(pair):
    d = pair.x - pair.a
    return float(np.dot(d, d)) / pair.gamma


def dual_carlier_check(A, gamma, x, x_star):
    """Both sides of C_{A,gamma}(x, x*) = C_{A^{-1},1/gamma}(x*, x).

    The right side is computed on the inverse operator (closed forms when
    the catalog provides them), not by rearranging the left side.
    Returns (lhs, rhs).
    """
    gamma = _check_gamma(gamma)
    x = as_vector(x, A.dim, "x")
    x_star = as_vector(x_star, A.dim, "x_star")
    lhs = _carlier(_minty(A.resolvent, gamma, x, x_star))
    rhs = _carlier(_minty(A.inverse().resolvent, _check_gamma(1.0 / gamma), x_star, x))
    return lhs, rhs


def fitzpatrick_bound(entry, x, x_star):
    """F(x, x*) - <x, x*> when the entry carries a closed form, else None.

    Never falls back to numerics; the sampled estimate lives in the
    oracle module.
    """
    if entry.fitzpatrick_gap is None:
        return None
    return _fitzpatrick(entry, as_vector(x, entry.dim, "x"), as_vector(x_star, entry.dim, "x_star"))


def _fitzpatrick(entry, x, x_star):
    if entry.fitzpatrick_gap is None:
        return None
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
    lhs = _gap(f, x, x_star) + _gap(f, y, y_star)
    rhs = inner(y - x, x_star - y_star)
    return lhs, rhs


def bregman_distance(f, x, y):
    """D_f(x, y) = f(x) - f(y) - <x - y, grad f(y)>.

    Requires a gradient witness on the entry; the witness itself may
    reject y outside the differentiability domain.
    """
    if f.gradient is None:
        raise ValueError(f"catalog entry '{f.name}' has no gradient witness")
    x = as_vector(x, f.dim, "x")
    y = as_vector(y, f.dim, "y")
    g = f.gradient(y)
    fx = f.value(x)
    if fx == INF:
        return INF
    return fx - f.value(y) - inner(x - y, g)


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the bound chain at (x, x*, gamma).

    ``fitzpatrick`` is None when the entry has no closed form.
    ``gap_zero`` records Fenchel-Young equality (graph membership);
    ``gap_equals_carlier`` records the sharpness condition: the Minty
    point satisfies a in df*(x*) and (x + gamma x* - a)/gamma in df(x).
    """

    x: np.ndarray
    x_star: np.ndarray
    gamma: float
    gap: float
    fitzpatrick: Optional[float]
    carlier: float
    gap_zero: bool
    gap_equals_carlier: bool


BOUND_CSV_HEADER = (
    "x",
    "x_star",
    "gamma",
    "gap",
    "fitzpatrick",
    "carlier",
    "gap_zero",
    "gap_equals_carlier",
)


def bound_report(f, gamma, x, x_star, tol=DEFAULT_TOLERANCES):
    """Evaluate gap, Fitzpatrick gap, and Carlier bound at one query."""
    gamma = _check_gamma(gamma)
    x = as_vector(x, f.dim, "x")
    x_star = as_vector(x_star, f.dim, "x_star")

    g = _gap(f, x, x_star)
    fitz = _fitzpatrick(f, x, x_star)
    pair = _minty(f.prox, gamma, x, x_star)

    gap_zero = bool(g <= membership_scale(tol, x, x_star))

    a, u = pair.a, pair.a_star
    sharp = (
        _gap(f, a, x_star) <= membership_scale(tol, a, x_star)
        and _gap(f, x, u) <= membership_scale(tol, x, u)
    )

    return BoundReport(
        x=x,
        x_star=x_star,
        gamma=gamma,
        gap=g,
        fitzpatrick=fitz,
        carlier=_carlier(pair),
        gap_zero=gap_zero,
        gap_equals_carlier=bool(sharp),
    )


def chain_violation(report, tol=DEFAULT_TOLERANCES):
    """Describe a violation of gap >= fitz >= carlier >= 0, or None.

    Comparisons allow abs_tol*(1 + scale) slack; +inf entries satisfy
    every upper position of the chain.
    """
    scale = tol.abs_tol * (1.0 + abs(report.carlier) if report.carlier != INF else 1.0)
    upper = report.gap
    if report.fitzpatrick is not None:
        if report.fitzpatrick > upper + scale:
            return (
                f"fitzpatrick {report.fitzpatrick!r} exceeds gap {report.gap!r}"
            )
        upper = report.fitzpatrick
    if report.carlier > upper + scale:
        return f"carlier {report.carlier!r} exceeds {upper!r}"
    if report.carlier < -scale:
        return f"carlier {report.carlier!r} is negative"
    return None


def _fmt_float(v):
    return repr(float(v))


def _fmt_vector(v):
    return ";".join(_fmt_float(c) for c in v)


def report_to_csv_row(report):
    """Serialize to strings that round-trip to full double precision."""
    return [
        _fmt_vector(report.x),
        _fmt_vector(report.x_star),
        _fmt_float(report.gamma),
        _fmt_float(report.gap),
        "" if report.fitzpatrick is None else _fmt_float(report.fitzpatrick),
        _fmt_float(report.carlier),
        "true" if report.gap_zero else "false",
        "true" if report.gap_equals_carlier else "false",
    ]


def report_from_csv_row(row):
    if len(row) != len(BOUND_CSV_HEADER):
        raise ValueError(f"expected {len(BOUND_CSV_HEADER)} fields, got {len(row)}")
    x = np.array([float(c) for c in row[0].split(";")])
    x_star = np.array([float(c) for c in row[1].split(";")])
    return BoundReport(
        x=x,
        x_star=x_star,
        gamma=float(row[2]),
        gap=float(row[3]),
        fitzpatrick=None if row[4] == "" else float(row[4]),
        carlier=float(row[5]),
        gap_zero=row[6] == "true",
        gap_equals_carlier=row[7] == "true",
    )
