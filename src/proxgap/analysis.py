"""Gamma sweeps, limit classification, and the PGM certificate demo.

The Carlier bound's behaviour as gamma -> 0+ is governed by the domain
of A: outside the closed domain it blows up like dist^2/gamma, on the
domain it vanishes, and on the boundary the theorem is silent.  The
gamma -> infinity story is the same statement applied to A^{-1} and the
range.  This module turns those statements into sweep data, empirical
classifications, and regression tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .bounds import _carlier, _minty, bregman_distance, carlier_bound
from .catalog import make_burg, make_shannon, subdifferential_operator
from .core import as_gamma, as_vector
from .lambertw import lambert_w_exp

CONVERGE_RANGE_TOL = 1e-6
DIVERGE_THRESHOLD = 1e9
WINDOW = 5

KIND_CONVERGES = "converges"
KIND_DIVERGES = "diverges"
KIND_UNDETERMINED = "undetermined"
KIND_BOUNDARY = "boundary"


@dataclass(frozen=True)
class LimitClass:
    kind: str
    value: Optional[float] = None

    def describe(self):
        if self.kind == KIND_CONVERGES:
            return f"CONVERGES_TO({self.value!r})"
        return self.kind.upper()


def _classify_window(values_toward_limit):
    """Classify from sweep values ordered nearest-the-limit first."""
    window = np.asarray(values_toward_limit[:WINDOW], dtype=float)
    v = float(window[0])
    if float(np.max(window) - np.min(window)) < CONVERGE_RANGE_TOL * (1.0 + abs(v)):
        return LimitClass(KIND_CONVERGES, v)
    increasing = bool(np.all(np.diff(window) < 0.0))
    if bool(np.all(window > DIVERGE_THRESHOLD)) and increasing:
        return LimitClass(KIND_DIVERGES)
    return LimitClass(KIND_UNDETERMINED)


@dataclass(frozen=True)
class SweepResult:
    operator_name: str
    x: np.ndarray
    x_star: np.ndarray
    gammas: np.ndarray
    values: np.ndarray
    argmax_gamma: float
    argmax_value: float
    limit_zero: LimitClass
    limit_infinity: LimitClass


def gamma_sweep(A, x, x_star, lo=1e-6, hi=1e6, count=49):
    """Evaluate C_{A,gamma}(x, x*) on a log-spaced gamma grid.

    The whole grid goes through one ``bounds._minty`` call on the resolvent kernel.
    Classifies both grid ends: convergence when the five values nearest
    the end have range below 1e-6*(1+|v|), divergence when they exceed
    1e9 moving upward toward the end, undetermined otherwise.
    """
    if not (0.0 < lo < hi < math.inf):
        raise ValueError(f"need 0 < lo < hi < inf, got [{lo}, {hi}]")
    if count < WINDOW:
        raise ValueError(f"count must be at least {WINDOW}, got {count}")
    x = as_vector(x, A.dim, "x")
    x_star = as_vector(x_star, A.dim, "x_star")

    gammas = np.logspace(math.log10(lo), math.log10(hi), count)
    column = gammas[:, None]
    values = _carlier(x, _minty(A.resolvent_kernel, column, x, x_star)[1], column)
    idx = int(np.argmax(values))

    return SweepResult(
        operator_name=A.name,
        x=x,
        x_star=x_star,
        gammas=gammas,
        values=values,
        argmax_gamma=float(gammas[idx]),
        argmax_value=float(values[idx]),
        limit_zero=_classify_window(values),
        limit_infinity=_classify_window(values[::-1]),
    )


@dataclass(frozen=True)
class ClassifyResult:
    """Theorem prediction next to the empirical sweep classification.

    ``agree`` is None on boundary points, where the theorem makes no
    prediction; the empirical value nearest the limit is then attached
    as ``boundary_value``.
    """

    predicted: LimitClass
    empirical: LimitClass
    boundary_value: Optional[float]
    agree: Optional[bool]


# The default sweep grid cannot resolve O(gamma) limit approaches at the
# stated 1e-6 range threshold, so classification sweeps push further.
_CLASSIFY_LO = 1e-12
_CLASSIFY_HI = 1e2
_CLASSIFY_COUNT = 57


def classify_limit_zero(A, x, x_star):
    """Predict and measure the gamma -> 0+ limit of C_{A,gamma}(x, x*).

    Prediction: DIVERGES when x is outside the closure of dom A,
    CONVERGES_TO(0) when x is in dom A, BOUNDARY otherwise.
    """
    x = as_vector(x, A.dim, "x")
    x_star = as_vector(x_star, A.dim, "x_star")

    if not A.dom.closure_contains(x):
        predicted = LimitClass(KIND_DIVERGES)
    elif A.dom.contains(x):
        predicted = LimitClass(KIND_CONVERGES, 0.0)
    else:
        predicted = LimitClass(KIND_BOUNDARY)

    sweep = gamma_sweep(A, x, x_star, lo=_CLASSIFY_LO, hi=_CLASSIFY_HI, count=_CLASSIFY_COUNT)
    empirical = sweep.limit_zero

    if predicted.kind == KIND_BOUNDARY:
        return ClassifyResult(
            predicted=predicted,
            empirical=empirical,
            boundary_value=float(sweep.values[0]),
            agree=None,
        )

    agree = empirical.kind == predicted.kind
    if agree and predicted.kind == KIND_CONVERGES:
        agree = abs(empirical.value - predicted.value) <= 1e-3 * (1.0 + abs(predicted.value))
    return ClassifyResult(predicted=predicted, empirical=empirical, boundary_value=None, agree=agree)


def classify_limit_infinity(A, x, x_star):
    """The gamma -> infinity limit, by duality the zero limit of A^{-1}."""
    x = as_vector(x, A.dim, "x")
    x_star = as_vector(x_star, A.dim, "x_star")
    return classify_limit_zero(A.inverse(), x_star, x)


@dataclass(frozen=True)
class BoundaryRow:
    entry: str
    y: float
    gamma: float
    carlier: float
    closed_form: float


@dataclass(frozen=True)
class BoundaryReport:
    rows: Tuple[BoundaryRow, ...]
    burg_matches: bool
    burg_limit_ok: bool
    shannon_matches: bool
    shannon_limit_ok: bool


_BOUNDARY_GAMMAS = (1e-2, 1e-4, 1e-6, 1e-8)
_BOUNDARY_YS = (-1.0, 0.0, 1.0)


def boundary_limit_regressions():
    """Carlier values at the boundary point x = 0 for Burg and Shannon.

    One row per entry, y in _BOUNDARY_YS and gamma in _BOUNDARY_GAMMAS.

    Burg: C(0, y) = ((sqrt(gamma) y + sqrt(gamma y^2 + 4))/2)^2 -> 1.
    Shannon: C(0, y) = gamma * W(exp(y)/gamma)^2 -> 0.
    The generic resolvent path must reproduce both closed forms, with no
    overflow down to gamma = 1e-8.
    """
    burg_op = subdifferential_operator(make_burg())
    shannon_op = subdifferential_operator(make_shannon())
    x0 = np.array([0.0])

    rows = []
    for y in _BOUNDARY_YS:
        for gamma in _BOUNDARY_GAMMAS:
            generic = carlier_bound(burg_op, gamma, x0, [y])
            closed = (0.5 * (math.sqrt(gamma) * y + math.sqrt(gamma * y * y + 4.0))) ** 2
            rows.append(BoundaryRow("burg", y, gamma, generic, closed))
        for gamma in _BOUNDARY_GAMMAS:
            generic = carlier_bound(shannon_op, gamma, x0, [y])
            w = lambert_w_exp(y - math.log(gamma))
            rows.append(BoundaryRow("shannon", y, gamma, generic, gamma * w * w))

    # each flag is one predicate over its entry's rows, which a NaN carlier fails
    def holds(entry, ok):
        return all(ok(r) for r in rows if r.entry == entry)

    def matches(rtol):
        return lambda r: abs(r.carlier - r.closed_form) <= rtol * (1.0 + abs(r.closed_form))

    return BoundaryReport(
        rows=tuple(rows),
        burg_matches=holds("burg", matches(1e-10)),
        burg_limit_ok=holds("burg", lambda r: r.gamma > 1e-8 or abs(r.carlier - 1) <= 1e-3),
        shannon_matches=holds("shannon", matches(1e-12)),
        shannon_limit_ok=holds("shannon", lambda r: r.gamma > 1e-6 or r.carlier < 1e-3),
    )


@dataclass(frozen=True)
class PgmTrace:
    """Proximal-gradient run with per-iterate optimality certificates.

    For each iterate y_n, ``bregman_refs[n]`` is D_f(x_ref, y_n) and
    ``carlier_certs[n]`` is C_{df,gamma}(x_ref, grad f(y_n)); the chain
    guarantees cert <= Bregman gap, so the certificates are computable
    progress floors.  ``partial_sums`` accumulates the certificates; the
    running total stays below the summed Bregman gaps.
    """

    step: float
    gamma: float
    x_ref: np.ndarray
    iterates: tuple
    carlier_certs: np.ndarray
    bregman_refs: np.ndarray
    partial_sums: np.ndarray


_DIVERGE_NORM = 1e12


class PgmDiverged(ValueError):
    """The PGM iterates left the ball of radius ``_DIVERGE_NORM``."""


def _pgm_run(f_smooth, f_prox, step, y0, iters):
    y = y0
    out = [y]
    for _ in range(iters):
        y = f_prox.prox(step, y - step * f_smooth.gradient(y))
        if float(np.linalg.norm(y)) > _DIVERGE_NORM:
            raise PgmDiverged(f"PGM iterates diverged: ||y|| > {_DIVERGE_NORM:g}")
        out.append(y)
    return out


def pgm_certificates(f_smooth, f_prox, step, gamma, y0, iters=200):
    """Run PGM on f_smooth + f_prox and certify every iterate.

    The reference point is the final iterate of a run ten times longer,
    whose first iters + 1 points are the certified iterates, so the
    certificates measure progress toward the scheme's own fixed point
    rather than an externally supplied answer.
    """
    if f_smooth.gradient is None:
        raise ValueError(f"catalog entry '{f_smooth.name}' has no gradient witness")
    step = as_gamma(step, "step")
    gamma = as_gamma(gamma)
    y0 = as_vector(y0, f_smooth.dim, "y0")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters!r}")

    run = _pgm_run(f_smooth, f_prox, step, y0, 10 * iters)
    x_ref, iterates = run[-1], run[: iters + 1]

    A = subdifferential_operator(f_smooth)
    certs = np.array(
        [carlier_bound(A, gamma, x_ref, f_smooth.gradient(y)) for y in iterates]
    )
    brefs = np.array([bregman_distance(f_smooth, x_ref, y) for y in iterates])

    return PgmTrace(
        step=step,
        gamma=gamma,
        x_ref=x_ref,
        iterates=tuple(iterates),
        carlier_certs=certs,
        bregman_refs=brefs,
        partial_sums=np.cumsum(certs),
    )
