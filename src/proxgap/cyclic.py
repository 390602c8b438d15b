"""Series lower bounds from cyclic monotonicity.

Iterating the Minty parametrization at a fixed primal point x turns the
single Carlier term into a series: with a_0* = x* and

    a_k  = J_{gamma_k A}(x + gamma_k a_{k-1}*),
    a_k* = (x + gamma_k a_{k-1}* - a_k) / gamma_k,

each partial sum of ||x - a_k||^2 / gamma_k lower-bounds the gap of the
Fitzpatrick function of order n at (x, x*), and for A = df the whole
series is dominated by the Fenchel-Young gap.  A series of a few coordinates
steps through the resolvent kernel's ``formula`` where it has one (energy's
prox, :func:`proxgap.catalog._pointwise`), which ``functools.wraps`` keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Optional, Tuple

import numpy as np

from .bounds import _carlier
from .core import as_gamma, as_pairs, as_vector, chain_sum, graph_chain, inner

_NON_FINITE_Z = "z = x + gamma*a_star has non-finite entries in the cyclic recursion"
# the widest point whose series steps on Python floats: from 8 coordinates on
# the array loop is as fast or faster (BENCH_series_low_dim.json)
_FLOAT_DIM = 7


@dataclass(frozen=True)
class GammaSchedule:
    """Step sizes for the cyclic recursion: one constant or an explicit list.

    Each step size is stored as a positive finite Python float, whatever
    number type it was given as, so ``resolve`` always returns float64.
    """

    constant: Optional[float] = None
    values: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if (self.constant is None) == (self.values is None):
            raise ValueError("provide exactly one of constant= or values=")
        if self.values is None:
            object.__setattr__(self, "constant", as_gamma(self.constant))
            return
        values = tuple(map(as_gamma, self.values))
        if not values:
            raise ValueError("values must be non-empty")
        object.__setattr__(self, "values", values)

    @classmethod
    def const(cls, gamma):
        return cls(constant=gamma)

    @classmethod
    def from_values(cls, seq):
        return cls(values=seq)

    def resolve(self, n):
        if n < 1:
            raise ValueError(f"n_terms must be >= 1, got {n}")
        if self.constant is not None:
            return np.full(n, self.constant)
        if len(self.values) < n:
            raise ValueError(
                f"schedule supplies {len(self.values)} values but {n} terms requested"
            )
        return np.array(self.values[:n])


@dataclass(frozen=True)
class CyclicSequence:
    """The generated chain and its series terms at (x, x*).

    Row k - 1 of ``a`` and ``a_star`` is the graph point (a_k, a_k*).
    """

    x: np.ndarray
    x_star: np.ndarray
    gammas: np.ndarray
    a: np.ndarray
    a_star: np.ndarray
    terms: np.ndarray
    partial_sums: np.ndarray

    @property
    def points(self):
        """The pairs (a_k, a_k*) in order."""
        return tuple(zip(self.a, self.a_star))


def generate_cyclic_sequence(A, x, x_star, schedule, n_terms):
    """Run the recursion for n_terms steps and collect terms and sums.

    Term k is ||x - a_k||^2 / gamma_k; term 1 coincides with the Carlier
    bound C_{A,gamma_1}(x, x*) by construction.  Each step is a pure
    function of (a_{k-1}*, gamma_k), so under a constant schedule the chain
    is periodic as soon as a step returns an earlier a* bit for bit.  A
    step k that returns a_{k-p}* for p = 1 (a fixed point) or p = 2 (a
    2-cycle) stops the loop, and the remaining rows repeat rows
    k + 1 - p .. k in turn.  A ``values=`` schedule never stops early.

    For A.dim <= 7 the steps run on Python floats, z checked on each (one
    coordinate on float locals), and call the kernel's formula on floats where
    it has one (Burg, Shannon, energy, the rotator) or else the kernel on one
    point; wider points step on arrays, z checked after the loop, as the float
    loop's cost grows with the dim and the array loop's does not.  Both give
    the same bits, and no series raises a numpy warning.
    """
    x = as_vector(x, A.dim, "x")
    x_star = as_vector(x_star, A.dim, "x_star")
    gammas = schedule.resolve(n_terms)
    constant = schedule.constant is not None

    a, a_star = np.empty((2, n_terms, A.dim))
    steps = _float_steps if A.dim <= _FLOAT_DIM else _array_steps
    # a non-finite z is reported as such, and a last a* or a term may
    # overflow, so NaNs and overflows raise no numpy warning
    with np.errstate(invalid="ignore", over="ignore"):
        taken, period = steps(A.resolvent_kernel, x, x_star, gammas.tolist(), constant, a, a_star)
        for rows in (a, a_star):
            for j in range(period):  # row taken + i repeats row taken - period + i % period
                rows[taken + j::period] = rows[taken - period + j]
        terms = _carlier(x, a, gammas[:, None])
    return CyclicSequence(
        x=x,
        x_star=x_star,
        gammas=gammas,
        a=a,
        a_star=a_star,
        terms=terms,
        partial_sums=np.cumsum(terms),
    )


def _array_steps(resolvent, x, x_star, gammas, constant, a, a_star):
    """Fill rows of ``a`` and ``a_star`` on arrays; return (steps taken, period or 0)."""
    prev, period = x_star, 0
    # raw bytes of the last two a*, so that -0.0 and 0.0 count as different
    last, before = prev.tobytes(), None
    for k, gamma in enumerate(gammas):
        z = x + gamma * prev
        ak = resolvent(gamma, z)
        sk = (z - ak) / gamma
        a[k] = ak
        a_star[k] = sk
        if constant:
            key = sk.tobytes()
            if key in (last, before):
                period = 1 if key == last else 2
                break
            last, before = key, last
        prev = sk
    # A non-finite z_k makes a_k* non-finite and a non-finite a_k* makes
    # z_{k+1} non-finite, so this is the finiteness check of every z_k.
    if not (np.isfinite(z).all() and np.isfinite(a_star[:k]).all()):
        raise ValueError(_NON_FINITE_Z)
    return k + 1, period


def _float_steps(resolvent, x, x_star, gammas, constant, a, a_star):
    """:func:`_array_steps` on Python floats, with z checked on each step.

    A step calls the kernel's ``formula`` attribute, else the kernel on one
    point; a point of one coordinate steps on float locals (:func:`_scalar_steps`).
    """
    formula = getattr(resolvent, "formula", None)
    formula = formula or (lambda gamma, *z: resolvent(gamma, np.array(z)).tolist())
    xs, s = x.tolist(), x_star.tolist()
    if len(xs) == 1:
        a_coords, a_star_coords, period = _scalar_steps(formula, *xs, *s, gammas, constant)
    else:
        z, coords = list(xs), range(len(xs))
        a_coords, a_star_coords = [], []  # coordinates of a_1, a_2, ... and of a_1*, a_2*, ...
        last, before, period = s, None, 0
        for gamma in gammas:
            for i in coords:
                z[i] = xs[i] + gamma * s[i]
                if not isfinite(z[i]):
                    raise ValueError(_NON_FINITE_Z)
            ak = formula(gamma, *z)
            s = z[:]
            for i in coords:
                s[i] = (s[i] - ak[i]) / gamma
            a_coords.extend(ak)
            a_star_coords.extend(s)
            if constant and (s == last or s == before) and (period := _period(s, last, before)):
                break
            last, before = s, last
    a.ravel()[:len(a_coords)] = a_coords
    a_star.ravel()[:len(a_coords)] = a_star_coords
    return len(a_coords) // len(xs), period


def _scalar_steps(formula, x, s, gammas, constant):
    """The loop of :func:`_float_steps` on one coordinate: the a_k, the a_k* and the period."""
    a_coords, a_star_coords = [], []
    last, before, period = s, None, 0
    for gamma in gammas:
        z = x + gamma * s
        if not isfinite(z):
            raise ValueError(_NON_FINITE_Z)
        ak = formula(gamma, z)
        if type(ak) is not float:
            ak, = ak
        s = (z - ak) / gamma
        a_coords.append(ak)
        a_star_coords.append(s)
        if constant and (s == last or s == before) and (period := _period(s, last, before)):
            break
        last, before = s, last
    return a_coords, a_star_coords, period


def _period(s, last, before):
    """1 or 2 where ``s`` repeats ``last`` or ``before`` bit for bit, else 0;
    reprs, exact for floats, tell -0.0 from 0.0, which == does not."""
    return 1 if repr(s) == repr(last) else 2 if repr(s) == repr(before) else 0


def series_bound(A, x, x_star, schedule, n_terms):
    """The n-term series lower bound.

    Returns (partial_sum, terms) where partial_sum is the sum of the
    first n_terms resolvent-residual terms and terms is that list.  The
    first term always equals carlier_bound(A, gammas[0], x, x_star).
    """
    seq = generate_cyclic_sequence(A, x, x_star, schedule, n_terms)
    return float(seq.partial_sums[-1]), seq.terms.tolist()


def ncyclic_identity_check(x, x_star, points):
    """Both sides of the chain polarization identity, for arbitrary points.

    With points (a_1, a_1*), ..., (a_m, a_m*):

        lhs = <x - a_m, a_m*> + <a_1 - x, x*>
              + sum_{k=1}^{m-1} <a_{k+1} - a_k, a_k*>
        rhs = <a_1 - x, x* - a_1*>
              + sum_{k=2}^{m} <a_k - x, a_{k-1}* - a_k*>

    Algebraically lhs = rhs with no monotonicity or graph assumption.
    Returns (lhs, rhs).
    """
    x = as_vector(x, None, "x")
    x_star = as_vector(x_star, x.size, "x_star")
    pts = as_pairs(points, x.size)

    m = len(pts)
    lhs = inner(x - pts[m - 1][0], pts[m - 1][1]) + inner(pts[0][0] - x, x_star)
    for k in range(m - 1):
        lhs += inner(pts[k + 1][0] - pts[k][0], pts[k][1])
    return lhs, chain_sum(x, x_star, pts)


def fitzpatrick_n_lower(A, x, x_star, points):
    """Evaluate the order-(m+1) Fitzpatrick supremand at a graph chain.

    Every pair must lie in gr A (checked; ValueError names the offender).
    Returns the supremand minus <x, x*>, a lower bound for
    F_{A,m+1}(x, x*) - <x, x*>, as the difference sum of
    :func:`ncyclic_identity_check`'s right side.
    """
    x = as_vector(x, A.dim, "x")
    x_star = as_vector(x_star, A.dim, "x_star")
    return chain_sum(x, x_star, graph_chain(A, points, "point"))
