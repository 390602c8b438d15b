"""Catalog of convex functions and maximally monotone operators.

An entry declares only kernels and sets: closed forms for its value,
conjugate, gap and prox (for operators: resolvent), plus domain/range
predicates.  The frozen records derive every public map from them, and
the Moreau conjugate prox where no closed form is given.  Nothing here
falls back to numerics; the numeric routes live in :mod:`proxgap.oracle`
and exist only to check these formulas.

Prox convention: prox_{gamma f}(z) is the minimizer of
0.5*||p - z||^2 + gamma*f(p), equivalently the resolvent J_{gamma df}(z).

Kernel contract.  Every value, conjugate, prox, conjugate prox and
resolvent exists once, as an array kernel (the ``*_kernel`` fields).  A
kernel trusts its input: each point is a finite float64 array, either
one point of shape ``(dim,)`` or a stack of points of shape
``(m, dim)``, and row i of the result depends only on row i of the
inputs.  Value and conjugate kernels ``kernel(x)`` return a float64
scalar for one point and an ``(m,)`` array for a stack, with +inf
outside the domain.  ``gap_kernel(x, x_star)`` is the Fenchel-Young gap
in a closed form that does not cancel near the graph, row-wise like a value
kernel, never negative, +inf exactly where f(x) or f*(x*) is.  Prox,
conjugate prox and resolvent kernels ``kernel(gamma, z)`` take a float
``gamma > 0`` for one point and a float or an ``(m, 1)`` column of
positive floats for a stack; the result has the shape of ``z``.  Kernels
validate nothing and do not check that their output is finite; the one
exception is the rescaled point of the flipped kernels (:func:`_flipped`).
Burg's and Shannon's proxes, conjugate proxes and gaps and the rotator's
resolvent (:func:`_pointwise`) are one formula on Python floats each, which
every point goes through, alone or in a stack, and which raises no warning.
The subspace's gap kernel decides its rows on Python floats after one
projection and one ``row_norm`` of its stack.  Facts about a kernel are its
attributes, which a ``functools.wraps`` wrapper copies: ``formula`` on those
kernels and on energy's prox kernel, whose float formula is the same single
division as the kernel, ``equals_gap`` on a Fitzpatrick gap that is the
entry's gap kernel (the subspace's), and ``domain_points`` on a function's
value and conjugate kernels: it maps raw rows u with |u| <= 100 (one point or a
stack) row by row into dom df, or ran df = dom df*, where that kernel is finite
(a conjugate swaps both).  The public maps ``value``, ``conjugate``, ``prox``,
``conjugate_prox`` and ``resolvent`` are the kernels behind one ``as_vector``
call, and the last three reject a gamma that is not positive and finite before
it (see :func:`_evaluated` and :func:`_validated`); code that holds checked
arrays, such as the Minty points of :func:`proxgap.bounds._minty` and of the
cyclic series, calls the kernels directly.

Each formula is written once: Burg's conjugate and conjugate prox are
derived exactly from its value and prox, and the rotator's inverse
resolvent from its resolvent.  :func:`_generic_inverse` builds every
inverse Operator other than a subdifferential's (that is d(f*), built
from the conjugate); its default kernel is the resolvent flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import INF, as_gamma, as_vector, check_finite, parse_vector, row_norm, within_membership
from .core import within_tolerance
from .lambertw import lambert_w_exp

# exp(t) crosses the 1e300 finite-range ceiling near t = 690.78
_EXP_CEIL = 690.0

# ln 2 = _LN2_HI + _LN2_LO, with k * _LN2_HI exact for every float exponent k
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10

# s * s + 4 * gamma stays finite for |s| below _SQUARE_SAFE (the square root of
# the largest float is 1.34e154) and gamma below _GAMMA_SAFE (4 * gamma
# overflows from about 4.5e307)
_SQUARE_SAFE = 1e154
_GAMMA_SAFE = 1e307


@dataclass(frozen=True)
class SetSpec:
    """Membership predicates for a set and its closure."""

    contains: Callable[[np.ndarray], bool]
    closure_contains: Callable[[np.ndarray], bool]


# R^dim, and (0, inf) and (-inf, 0) on R^1
_ALL = SetSpec(contains=lambda x: True, closure_contains=lambda x: True)
_POSITIVE = SetSpec(contains=lambda x: x[0] > 0.0, closure_contains=lambda x: x[0] >= 0.0)
_NEGATIVE = SetSpec(contains=lambda x: x[0] < 0.0, closure_contains=lambda x: x[0] <= 0.0)


def _positive_points(u):  # a ``domain_points`` map into (0, inf)
    return np.abs(u) + 0.1


def _evaluated(kernel, dim, name):
    """The public value map of a kernel: ``as_vector`` once, then the kernel, as a float."""

    def call(x):
        return float(kernel(as_vector(x, dim, name)))

    return call


def _validated(kernel, dim, name):
    """The public (gamma, point) map of a kernel: gamma tested positive and finite
    (``as_gamma`` words the error), ``as_vector`` once on the point, then the kernel."""

    def call(gamma, z):
        if not 0.0 < gamma < INF:
            as_gamma(gamma)
        return kernel(gamma, as_vector(z, dim, name))

    return call


def _pointwise(formula):
    """The kernel of ``formula(gamma, *z)``, which maps the coordinates of one
    point to those of the result on Python floats (one coordinate as a float).

    Every point, alone or in a stack, goes through the formula: ``math``'s
    results bit for bit, no numpy warning, and less time per point than numpy
    calls on tiny arrays.  The kernel keeps it as ``kernel.formula``, for the
    cyclic series.
    """

    def kernel(gamma, z):
        if z.ndim == 1 and type(gamma) is float:
            return np.array(formula(gamma, *z.tolist()), ndmin=1)
        gammas = np.broadcast_to(gamma, z.shape)[..., 0].ravel().tolist()
        rows = map(formula, gammas, *z.reshape(-1, z.shape[-1]).T.tolist())
        return np.array(list(rows)).reshape(z.shape)

    kernel.formula = formula
    return kernel


def _gap_rows(gaps, x):
    """A gap kernel's result from the Python float gaps of the rows of ``x``."""
    if x.ndim == 1:
        return np.float64(gaps[0])
    # a reshape costs as much again as the array: skip it where it changes nothing
    return np.array(gaps) if x.ndim == 2 else np.array(gaps).reshape(x.shape[:-1])


def _elementwise_gap(scalar_gap):
    """The gap kernel of ``scalar_gap(s, t)``: one call per row pair on
    Python floats, so an overflow is +inf with no warning."""

    def kernel(x, x_star):
        pairs = zip(x.ravel().tolist(), x_star.ravel().tolist(), strict=True)
        return _gap_rows([scalar_gap(s, t) for s, t in pairs], x)

    return kernel


def _flipped(kernel):
    """The kernel of w -> w - mu J(1/mu, w/mu), given the kernel of J.

    This is J_{mu A^{-1}} for J = J_A, and prox_{mu f*} (Moreau) for
    J = prox_f.  The rescaled point w/mu is the input of the inner kernel,
    so its finiteness is checked here, as a public inner call would, with no
    numpy warning where w/mu overflows.  J_{mu A^{-1}}(w) may be finite
    there; returning it needs a per-entry form.
    """

    def flipped(mu, w):
        with np.errstate(over="ignore"):
            z = w / mu
        return w - mu * kernel(1.0 / mu, check_finite(z, "z = w/mu"))

    return flipped


def _derive(record, public, wrap, name):
    """Set the public map ``public`` of a record, when None, to
    ``wrap(<public>_kernel, dim, name)``."""
    if getattr(record, public) is None:
        kernel = getattr(record, public + "_kernel")
        object.__setattr__(record, public, wrap(kernel, record.dim, name))


def _swapped(pair_map):
    """(u, u*) -> pair_map(u*, u), or None for None: the graph test or Fitzpatrick
    gap of an inverse (or a conjugate) from the entry's, with its ``equals_gap`` mark."""
    if pair_map is None:
        return None

    def swapped(u, u_star):
        return pair_map(u_star, u)

    swapped.equals_gap = getattr(pair_map, "equals_gap", False)
    return swapped


@dataclass(frozen=True)
class ConvexFunction:
    """A proper lsc convex function, declared by its kernels and sets.

    ``value_kernel`` and ``conjugate_kernel`` are the trusted array kernels
    of f and f* (module docstring), which the bounds, the graph test and
    the brute-force oracles call on validated points and grids.
    ``gap_kernel`` is the package's only Fenchel-Young gap, in the entry's
    closed form that does not cancel near the graph (module docstring).
    ``prox_kernel`` is the kernel of prox_{gamma f}, and
    ``conjugate_prox_kernel`` that of prox_{sigma f*}, which powers the
    inverse of the subdifferential; when absent, the record derives it
    from the prox by the Moreau decomposition.  ``fitzpatrick_gap`` is
    F_{df}(x, x*) - <x, x*> when a closed form is known; it is row-wise and
    trusting like a value kernel (one point gives a float64 scalar, a stack
    an ``(m,)`` array).  ``subdiff_domain`` and ``subdiff_range`` are dom df
    and ran df.  The record derives each public map left as None, ``value``,
    ``conjugate``, ``prox`` and ``conjugate_prox``, from its kernel; their
    messages name ``x``, ``x_star``, ``z`` and ``w``.
    """

    name: str
    dim: int
    value_kernel: Callable[[np.ndarray], np.ndarray]
    conjugate_kernel: Callable[[np.ndarray], np.ndarray]
    gap_kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    prox_kernel: Callable[[float, np.ndarray], np.ndarray]
    subdiff_domain: SetSpec
    subdiff_range: SetSpec
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fitzpatrick_gap: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    conjugate_prox_kernel: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    value: Optional[Callable[[np.ndarray], float]] = None
    conjugate: Optional[Callable[[np.ndarray], float]] = None
    prox: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    conjugate_prox: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.conjugate_prox_kernel is None:
            object.__setattr__(self, "conjugate_prox_kernel", _flipped(self.prox_kernel))
        _derive(self, "value", _evaluated, "x")
        _derive(self, "conjugate", _evaluated, "x_star")
        _derive(self, "prox", _validated, "z")
        _derive(self, "conjugate_prox", _validated, "w")


@dataclass(frozen=True)
class Operator:
    """A maximally monotone operator, declared by its resolvent kernel and graph test.

    ``resolvent_kernel`` is the trusted array kernel of J_{gamma A} for
    gamma > 0 (module docstring); the record derives ``resolvent``, when
    left as None, from it.  ``graph_kernel(x, x_star)`` tests (x, x*) in
    gr A row by row on trusted points (a bool for one point, an ``(m,)``
    mask for a stack); :meth:`graph_contains` is its validated batch of
    one.  ``fitzpatrick_gap`` is row-wise and trusting in the same way.
    ``dom``/``ran`` describe dom A and ran A.  ``inverse_factory``, when
    present, builds A^{-1} from closed forms; otherwise the generic
    resolvent identity is used.
    """

    name: str
    dim: int
    resolvent_kernel: Callable[[float, np.ndarray], np.ndarray]
    graph_kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dom: SetSpec
    ran: SetSpec
    fitzpatrick_gap: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    inverse_factory: Optional[Callable[[], "Operator"]] = None
    resolvent: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        _derive(self, "resolvent", _validated, "z")

    def inverse(self):
        """A^{-1}, built on the first call; later calls return the same object."""
        inv = self.__dict__.get("_inverse")
        if inv is None:
            factory = self.inverse_factory
            inv = factory() if factory is not None else _generic_inverse(self)
            object.__setattr__(self, "_inverse", inv)
        return inv

    def graph_contains(self, x, x_star):
        """Whether (x, x*) lies in gr A: ``graph_kernel`` on one validated pair."""
        x = as_vector(x, self.dim, "x")
        x_star = as_vector(x_star, self.dim, "x_star")
        return bool(self.graph_kernel(x, x_star))


def _generic_inverse(A, kernel=None):
    """A^{-1} with ``kernel`` as the kernel of J_{mu A^{-1}}, by default the
    resolvent identity J_{mu A^{-1}}(w) = w - mu J_{A/mu}(w/mu)."""
    if kernel is None:
        kernel = _flipped(A.resolvent_kernel)
    return Operator(
        name=f"inverse({A.name})",
        dim=A.dim,
        resolvent=_validated(kernel, A.dim, "w"),
        resolvent_kernel=kernel,
        graph_kernel=_swapped(A.graph_kernel),
        dom=A.ran,
        ran=A.dom,
        fitzpatrick_gap=_swapped(A.fitzpatrick_gap),
        inverse_factory=lambda: A,
    )


def conjugate_function(f):
    """The Fenchel conjugate of a catalog function, as a catalog function.

    Roles of value/conjugate, prox/conjugate_prox (each with its kernel),
    the gap kernel's arguments and the subdifferential domain/range swap.
    """
    return ConvexFunction(
        name=f"conjugate({f.name})",
        dim=f.dim,
        value=f.conjugate,
        conjugate=f.value,
        value_kernel=f.conjugate_kernel,
        conjugate_kernel=f.value_kernel,
        gap_kernel=_swapped(f.gap_kernel),
        prox=f.conjugate_prox,
        prox_kernel=f.conjugate_prox_kernel,
        fitzpatrick_gap=_swapped(f.fitzpatrick_gap),
        conjugate_prox=f.prox,
        conjugate_prox_kernel=f.prox_kernel,
        subdiff_domain=f.subdiff_range,
        subdiff_range=f.subdiff_domain,
    )


def subdifferential_operator(f):
    """The operator df for a catalog function f.

    The resolvent is the prox, graph membership is the Fenchel-Young
    equality test G_f(x, x*) <= MEMBERSHIP_TOL*(1 + ||x|| + ||x*||) on the gap
    kernel (row-wise, see :func:`~proxgap.core.within_membership`), and the
    inverse is df* built from the conjugate.
    """
    def graph_kernel(x, x_star):
        return within_membership(f.gap_kernel(x, x_star), x, x_star)

    return Operator(
        name=f"subdiff({f.name})",
        dim=f.dim,
        resolvent=f.prox,
        resolvent_kernel=f.prox_kernel,
        graph_kernel=graph_kernel,
        dom=f.subdiff_domain,
        ran=f.subdiff_range,
        fitzpatrick_gap=f.fitzpatrick_gap,
        inverse_factory=lambda: subdifferential_operator(conjugate_function(f)),
    )


# ---------------------------------------------------------------------------
# energy


def make_energy(dim):
    """f = 0.5*||.||^2 on R^dim.

    Self-conjugate; gap 0.5*||x - x*||^2; prox_{gamma f}(z) = z/(1+gamma);
    Fitzpatrick gap 0.25*||x - x*||^2; df = Id with full domain and range.
    """
    if dim < 1:
        raise ValueError(f"energy requires dim >= 1, got {dim}")

    def value_kernel(x):
        return 0.5 * np.vecdot(x, x)

    def prox_kernel(gamma, z):
        return z / (1.0 + gamma)

    def formula(gamma, *z):  # the kernel's division, coordinate by coordinate
        d = 1.0 + gamma
        return [c / d for c in z]

    prox_kernel.formula = formula
    value_kernel.domain_points = np.positive  # the identity, also the conjugate kernel's

    def fitz_gap(x, x_star):
        d = x - x_star
        return 0.25 * np.vecdot(d, d)

    return ConvexFunction(
        name="energy",
        dim=dim,
        value_kernel=value_kernel,
        conjugate_kernel=value_kernel,
        gap_kernel=lambda x, x_star: value_kernel(x - x_star),
        prox_kernel=prox_kernel,
        gradient=lambda x: as_vector(x, dim, "x").copy(),
        fitzpatrick_gap=fitz_gap,
        conjugate_prox_kernel=prox_kernel,
        subdiff_domain=_ALL,
        subdiff_range=_ALL,
    )


# ---------------------------------------------------------------------------
# subspace indicator


def orthonormal_basis(vectors):
    """Orthonormalize by modified Gram-Schmidt with one re-orthogonalization.

    Raises ValueError when the input is rank-deficient: when the part of a
    vector orthogonal to those before it is at most 1e-10 of its norm.
    Returns an array of shape (k, dim) whose rows span the same subspace.
    """
    rows = [as_vector(v, None, f"basis vector {i + 1}") for i, v in enumerate(vectors)]
    if not rows:
        raise ValueError("basis must contain at least one vector")
    dim = rows[0].size
    basis = []
    for i, v in enumerate(rows):
        if v.size != dim:
            raise ValueError(f"basis vector {i + 1} has dimension {v.size}, expected {dim}")
        # v scaled by a power of two, exactly, so that no norm overflows or underflows
        u = np.ldexp(v, -math.frexp(float(np.max(np.abs(v))))[1])
        scale = float(np.linalg.norm(u))
        for _ in range(2):
            for q in basis:
                u = u - np.dot(q, u) * q
        nu = float(np.linalg.norm(u))
        if nu <= 1e-10 * scale:
            raise ValueError(f"basis is rank-deficient at vector {i + 1}: {v.tolist()}")
        basis.append(u / nu)
    return np.array(basis)


def make_subspace_indicator(basis):
    """f = indicator of U = span(basis) in R^dim.

    Conjugate is the indicator of the orthogonal complement, so the gap and
    the Fitzpatrick gap are 0 on U x U^perp, +inf off it; the prox is the
    orthogonal projector P_U for every gamma.  Membership tests use
    dist(z, U) <= MEMBERSHIP_TOL*(1 + ||z||).  df = N_U, the normal cone map,
    with dom N_U = U and ran N_U = U^perp.
    """
    Q = orthonormal_basis(basis)
    dim, QT = Q.shape[1], Q.T

    def project(z):
        # rows of z are points, so one call projects a whole stack; np.dot makes
        # the BLAS calls of @ with less overhead per call
        return np.dot(np.dot(z, QT), Q)

    # ||z - P z|| and ||P z|| <= MEMBERSHIP_TOL*(1 + ||z||) row by row
    def in_U(z):
        return within_membership(row_norm(z - project(z)), z)

    def in_Uperp(z):
        return within_membership(row_norm(project(z)), z)

    def value_kernel(x):
        return np.where(in_U(x), 0.0, INF)[()]

    def conjugate_kernel(x_star):
        return np.where(in_Uperp(x_star), 0.0, INF)[()]

    def prox_kernel(gamma, z):
        return project(z)

    def conjugate_prox_kernel(sigma, w):
        return w - project(w)

    # in_U(x) & in_Uperp(x_star): one stack of rows x - P x, P x*, x, x*, decided on floats
    def fitz_gap(x, x_star):
        z = np.array((x, x_star, x, x_star)).reshape(4, -1, dim)
        proj = project(z[:2].reshape(-1, dim)).reshape(2, -1, dim)
        z[0] -= proj[0]
        z[1] = proj[1]
        rows = zip(*row_norm(z).tolist())
        member = [within_tolerance(r, (n,)) and within_tolerance(s, (t,)) for r, s, n, t in rows]
        return _gap_rows([0.0 if m else INF for m in member], x)

    fitz_gap.equals_gap = True
    value_kernel.domain_points = project
    conjugate_kernel.domain_points = lambda u: conjugate_prox_kernel(1.0, u)

    member_U = SetSpec(contains=in_U, closure_contains=in_U)
    member_Uperp = SetSpec(contains=in_Uperp, closure_contains=in_Uperp)

    return ConvexFunction(
        name="subspace",
        dim=dim,
        value_kernel=value_kernel,
        conjugate_kernel=conjugate_kernel,
        gap_kernel=fitz_gap,
        prox_kernel=prox_kernel,
        fitzpatrick_gap=fitz_gap,
        conjugate_prox_kernel=conjugate_prox_kernel,
        subdiff_domain=member_U,
        subdiff_range=member_Uperp,
    )


def _positive_gradient(name, formula):
    """The gradient witness ``formula(s)`` at a point s > 0 of R^1, on a Python float."""

    def gradient(x):
        s = as_vector(x, 1, "x").item()
        if s <= 0.0:
            raise ValueError(f"gradient of {name} is undefined at {s!r}")
        return np.array([formula(s)])

    return gradient


# ---------------------------------------------------------------------------
# Burg entropy


def make_burg():
    """f(x) = -ln(x) for x > 0, +inf otherwise, on R^1.

    prox_{gamma f}(z) is the positive root of p^2 - z p - gamma = 0; for
    z < 0 the equivalent form 2*gamma/(sqrt(z^2 + 4*gamma) - z) avoids
    cancellation.  The gap is phi(-x x*) with phi(p) = p - 1 - ln p.  The
    conjugate f*(y) = f(-y) - 1 = -1 - ln(-y) for y < 0,
    +inf otherwise (at y = 0 the defining sup diverges), and its prox
    prox_{sigma f*}(t) = -prox_{sigma f}(-t) are derived from f and its
    prox; negation is exact, so they round like their direct formulas.
    """

    # where= leaves the +inf fill outside the domain and raises no warning there
    def value_kernel(x):
        s = x[..., 0]
        pos = s > 0.0
        out = np.full(s.shape, INF)
        np.log(s, out=out, where=pos)
        return np.negative(out, out=out, where=pos)[()]

    # where s * s + 4 * gamma could overflow, the root comes from s/2 and
    # half the discriminant, hypot(s/2, sqrt(gamma)), which stay finite up
    # to the largest float
    def scalar_prox(gamma, s):
        if -_SQUARE_SAFE < s < _SQUARE_SAFE and gamma < _GAMMA_SAFE:
            disc = math.sqrt(s * s + 4.0 * gamma)
            if s >= 0.0:
                return 0.5 * (s + disc)
            return 2.0 * gamma / (disc - s)
        half = math.hypot(0.5 * s, math.sqrt(gamma))
        if s >= 0.0:
            return 0.5 * s + half
        return gamma / (half - 0.5 * s)

    # phi(1 + q) = q - log1p(q) has a relative error of 2u/|q| near the graph,
    # so below |q| = 2^-5 it is the series q^2/2 - q^3/3 + ... to q^12; below
    # p = 0.5, where p can underflow, ln p is ln x + ln(-x*)
    def scalar_gap(s, t):
        p = -s * t
        if not (s > 0.0 and t < 0.0) or p == INF:
            return INF
        if p < 0.5:
            return p - 1.0 - (math.log(s) + math.log(-t))
        q = p - 1.0
        if abs(q) < 2.0**-5:
            tail = 1 / 7 - q * (1 / 8 - q * (1 / 9 - q * (1 / 10 - q * (1 / 11 - q / 12))))
            return q * q * (0.5 - q * (1 / 3 - q * (1 / 4 - q * (1 / 5 - q * (1 / 6 - q * tail)))))
        return q - math.log1p(q)

    def conjugate_kernel(x_star):
        return value_kernel(-x_star) - 1.0

    # -e^u on math.exp, element by element, which np.exp can miss by one ulp
    value_kernel.domain_points = _positive_points
    conjugate_kernel.domain_points = lambda u: -np.vectorize(math.exp, otypes=[float])(u)
    return ConvexFunction(
        name="burg",
        dim=1,
        value_kernel=value_kernel,
        conjugate_kernel=conjugate_kernel,
        gap_kernel=_elementwise_gap(scalar_gap),
        prox_kernel=_pointwise(scalar_prox),
        gradient=_positive_gradient("burg", lambda s: -1.0 / s),
        conjugate_prox_kernel=_pointwise(lambda sigma, t: -scalar_prox(sigma, -t)),
        subdiff_domain=_POSITIVE,
        subdiff_range=_NEGATIVE,
    )


# ---------------------------------------------------------------------------
# Shannon entropy


def make_shannon():
    """f(x) = x ln(x) - x for x > 0, f(0) = 0, +inf for x < 0, on R^1.

    Conjugate f*(y) = exp(y); gap x (e^d - 1 - d), d = x* - ln x (e^x* at
    x = 0).  prox_{gamma f}(z) = gamma*W(exp(z/gamma)/gamma) in the log
    domain, so no exp overflow for any gamma down to 1e-8.  prox of the
    conjugate is w - W(sigma*exp(w)).
    """

    # where= leaves the 0 / +inf fill off (0, inf) and raises no warning there
    def value_kernel(x):
        s = x[..., 0]
        pos = s > 0.0
        out = np.where(s == 0.0, 0.0, INF)
        np.log(s, out=out, where=pos)
        np.multiply(s, out, out=out, where=pos)
        return np.subtract(out, s, out=out, where=pos)[()]

    def conjugate_kernel(x_star):
        t = x_star[..., 0]
        out = np.full(t.shape, INF)
        return np.exp(t, out=out, where=t <= _EXP_CEIL)[()]

    # where s/gamma overflows, the root of p + gamma ln p = s rounds to s,
    # since gamma ln s / s < 4e-306 there
    def scalar_prox(gamma, s):
        t = s / gamma - math.log(gamma)
        if t == INF:
            return s - gamma * math.log(s)
        return gamma * lambert_w_exp(t)

    def scalar_conjugate_prox(sigma, t):
        return t - lambert_w_exp(t + math.log(sigma))

    # ln x = k ln 2 + ln m for x = m 2^k rounds only ln m, so d keeps its low
    # digits near the graph (d = 0), where five terms of the series of e^d - 1 - d
    # are exact; from d = 1 on, e^x* - x (1 + d) neither cancels nor overflows
    def scalar_gap(s, t):
        if s < 0.0 or t > _EXP_CEIL:
            return INF
        if s == 0.0:
            return math.exp(t)
        m, k = math.frexp(s)
        d = (t - k * _LN2_HI) - (k * _LN2_LO + math.log1p(m - 1.0))
        if d >= 1.0:
            return math.exp(t) - s * (1.0 + d)
        if abs(d) < 2.0**-10:
            return s * d * d * (0.5 + d * (1 / 6 + d * (1 / 24 + d * (1 / 120 + d / 720))))
        return s * (math.expm1(d) - d)

    value_kernel.domain_points = _positive_points
    conjugate_kernel.domain_points = np.positive  # the identity
    return ConvexFunction(
        name="shannon",
        dim=1,
        value_kernel=value_kernel,
        conjugate_kernel=conjugate_kernel,
        gap_kernel=_elementwise_gap(scalar_gap),
        prox_kernel=_pointwise(scalar_prox),
        gradient=_positive_gradient("shannon", math.log),
        conjugate_prox_kernel=_pointwise(scalar_conjugate_prox),
        subdiff_domain=_POSITIVE,
        subdiff_range=_ALL,
    )


# ---------------------------------------------------------------------------
# rotator


def make_rotator():
    """A(x1, x2) = (-x2, x1), rotation by a quarter turn on R^2.

    Maximally monotone but not a subdifferential.  The resolvent is
    J_{gamma A}(z) = (z1 + gamma z2, -gamma z1 + z2)/(1 + gamma^2); the
    Fitzpatrick function is the indicator of the graph, so the gap is 0
    on the graph and +inf off it.  The inverse is the quarter turn the
    other way, A^{-1} = -A, so J_{mu A^{-1}} is the resolvent at gamma = -mu.
    Every point, alone or in a stack, goes through one formula on Python
    floats, which raises no warning: where 1 + gamma^2 or either coordinate
    is not finite, the row is divided through by gamma, and where that
    overflows too, both forms run again at z/4 (once: z may be inf), scaled by 4.
    """

    def turn(gamma, z1, z2, top=True):
        d = 1.0 + gamma * gamma
        a1, a2 = (z1 + z2 * gamma) / d, (z2 + z1 * -gamma) / d
        if math.isfinite(d) and math.isfinite(a1) and math.isfinite(a2):
            return a1, a2
        e = 1.0 / gamma + gamma
        a1, a2 = (z1 / gamma + z2) / e, (z2 / gamma - z1) / e
        if math.isfinite(a1) and math.isfinite(a2) or not top:
            return a1, a2
        a1, a2 = turn(gamma, z1 / 4.0, z2 / 4.0, False)
        return 4.0 * a1, 4.0 * a2

    def graph_kernel(x, x_star):
        turned = np.stack((-x[..., 1], x[..., 0]), axis=-1)
        return within_membership(row_norm(turned - x_star), x, x_star)

    def fitz_gap(x, x_star):
        return np.where(graph_kernel(x, x_star), 0.0, INF)[()]

    rotator = Operator(
        name="rotator",
        dim=2,
        resolvent_kernel=_pointwise(turn),
        graph_kernel=graph_kernel,
        dom=_ALL,
        ran=_ALL,
        fitzpatrick_gap=fitz_gap,
        inverse_factory=lambda: _generic_inverse(
            rotator, _pointwise(lambda mu, w1, w2: turn(-mu, w1, w2))
        ),
    )
    return rotator


# ---------------------------------------------------------------------------
# spec strings


def _parse_dim(raw, spec):
    try:
        dim = int(raw)
    except ValueError:
        raise ValueError(f"bad dimension '{raw}' in spec '{spec}'") from None
    if dim < 1:
        raise ValueError(f"bad dimension '{raw}' in spec '{spec}': must be >= 1")
    return dim


def _subspace_from(pairs, spec):
    dim = _parse_dim(pairs["dim"], spec)
    parts = pairs["basis"].split(";")
    if not any(parts):
        raise ValueError(f"spec '{spec}' has an empty basis")
    if not all(parts):
        raise ValueError(f"empty basis vector in spec '{spec}'")
    vectors = [parse_vector(part, "vector") for part in parts]
    for v in vectors:
        label = f"basis vector '{','.join(str(c) for c in v)}' in spec '{spec}'"
        if len(v) != dim:
            raise ValueError(f"{label} has dimension {len(v)}, expected {dim}")
        if not all(map(math.isfinite, v)):
            raise ValueError(f"{label} has non-finite entries")
    return make_subspace_indicator(vectors)


# name -> (keys, each with the value its missing-key error shows; builder (pairs, spec) -> entry),
# whose make_* is looked up when it runs, so a factory patched on this module is the one called
_SPECS = {
    "energy": ({"dim": "N"}, lambda pairs, spec: make_energy(_parse_dim(pairs["dim"], spec))),
    "subspace": ({"dim": "...", "basis": "..."}, _subspace_from),
    "burg": ({}, lambda pairs, spec: make_burg()),
    "shannon": ({}, lambda pairs, spec: make_shannon()),
    "rotator": ({}, lambda pairs, spec: make_rotator()),
}


def parse_spec(spec):
    """Build a catalog entry from a string like ``energy:dim=2``.

    Grammar, one ``_SPECS`` row per name: ``energy:dim=N``,
    ``subspace:dim=N:basis=v1;v2;...`` with comma-separated coordinates, and
    the bare names ``burg``, ``shannon``, ``rotator``.  Returns a ConvexFunction
    or, for ``rotator``, an Operator.  Error messages name the offending token.
    """
    if not spec or not spec.strip():
        raise ValueError("empty catalog spec")
    tokens = spec.strip().split(":")
    name, pairs = tokens[0], {}
    for tok in tokens[1:]:
        key, sep, val = tok.partition("=")
        if not sep or not key:
            raise ValueError(f"expected key=value in spec '{spec}', got '{tok}'")
        if key in pairs:
            raise ValueError(f"duplicate key '{key}' in spec '{spec}'")
        pairs[key] = val
    if name not in _SPECS:
        raise ValueError(f"unknown catalog entry '{name}'")
    keys, build = _SPECS[name]
    missing = sorted(keys.keys() - pairs.keys())
    if missing:
        raise ValueError(f"spec '{spec}' requires {missing[0]}={keys[missing[0]]}")
    extra = sorted(pairs.keys() - keys.keys())
    if extra:
        raise ValueError(f"unexpected key '{extra[0]}' in spec '{spec}'")
    return build(pairs, spec)


def as_operator(entry):
    """Adapt a parsed entry to an Operator: subdifferential for functions."""
    if isinstance(entry, Operator):
        return entry
    return subdifferential_operator(entry)
