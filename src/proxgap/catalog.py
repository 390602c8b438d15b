"""Catalog of convex functions and maximally monotone operators.

Every entry ships closed forms for its value, conjugate, and prox (for
operators: resolvent), plus domain/range predicates.  Entries are plain
frozen records of callables; nothing here ever falls back to numerics,
the numeric routes live in :mod:`proxgap.oracle` and exist only to check
these formulas.

Prox convention: prox_{gamma f}(z) is the minimizer of
0.5*||p - z||^2 + gamma*f(p), equivalently the resolvent J_{gamma df}(z).

Kernel contract.  Every prox, conjugate prox and resolvent exists once,
as an array kernel ``kernel(gamma, z)`` (the ``*_kernel`` fields).  A
kernel trusts its input: ``z`` is a finite float64 array, either one
point of shape ``(dim,)`` with a float ``gamma > 0``, or a stack of
points of shape ``(m, dim)`` with ``gamma`` a float or an ``(m, 1)``
column of positive floats; the result has the shape of ``z`` and row i
depends only on row i of the inputs.  Kernels validate nothing and do
not check that their output is finite; the one exception is the
rescaled point of the derived kernels (:func:`_flipped`).  The public
maps ``prox``, ``conjugate_prox`` and ``resolvent`` are the kernels
behind one ``as_vector`` call on ``z`` (see :func:`_validated`); drivers
that call a kernel directly check finiteness of their stacked inputs
themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    INF,
    as_vector,
    inner,
    membership_scale,
    norm_sq,
)
from .lambertw import lambert_w_exp

# exp(t) crosses the 1e300 finite-range ceiling near t = 690.78
_EXP_CEIL = 690.0


@dataclass(frozen=True)
class SetSpec:
    """Membership predicates for a set and its closure."""

    contains: Callable[[np.ndarray], bool]
    closure_contains: Callable[[np.ndarray], bool]


def _validated(kernel, dim, name):
    """The public (gamma, point) map of a kernel: ``as_vector`` once, then the kernel."""

    def call(gamma, z):
        return kernel(gamma, as_vector(z, dim, name))

    return call


def _elementwise(scalar_map):
    """The kernel of a one-dimensional map given on Python floats.

    Each element goes through ``scalar_map(gamma, s)`` unchanged, which
    keeps ``math``'s results bit for bit and costs less per point than a
    chain of numpy calls on one-element arrays.
    """
    ufunc = np.frompyfunc(scalar_map, 2, 1)

    def kernel(gamma, z):
        return ufunc(gamma, z).astype(float)

    return kernel


def _flipped(kernel):
    """The kernel of w -> w - mu J(1/mu, w/mu), given the kernel of J.

    This is J_{mu A^{-1}} for J = J_A, and prox_{mu f*} (Moreau) for
    J = prox_f.  The rescaled point w/mu is the input of the inner kernel,
    so its finiteness is checked here, as a public inner call would.
    """

    def flipped(mu, w):
        z = w / mu
        if not np.isfinite(z).all():
            raise ValueError(f"z = w/mu has non-finite entries: {z!r}")
        return w - mu * kernel(1.0 / mu, z)

    return flipped


def _all_space():
    return SetSpec(contains=lambda x: True, closure_contains=lambda x: True)


@dataclass(frozen=True)
class ConvexFunction:
    """A proper lsc convex function with closed-form companions.

    ``value`` and ``conjugate`` map a vector to an extended real (float,
    +inf allowed).  ``prox`` maps (gamma, z) to prox_{gamma f}(z) and
    ``prox_kernel`` is its trusted array kernel (module docstring).
    ``value_batch``/``conjugate_batch`` evaluate an (m, dim) array of
    points at once; the brute-force oracles use them for grid scans.
    ``fitzpatrick_gap`` is F_{df}(x, x*) - <x, x*> when a closed form is
    known.  ``conjugate_prox`` is prox_{sigma f*} and powers the inverse
    of the subdifferential, with ``conjugate_prox_kernel`` as its kernel;
    when ``conjugate_prox`` is absent both are derived from the prox by
    the Moreau decomposition.
    """

    name: str
    dim: int
    value: Callable[[np.ndarray], float]
    conjugate: Callable[[np.ndarray], float]
    prox: Callable[[float, np.ndarray], np.ndarray]
    prox_kernel: Callable[[float, np.ndarray], np.ndarray]
    value_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    conjugate_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fitzpatrick_gap: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    conjugate_prox: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    conjugate_prox_kernel: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    subdiff_domain: Optional[SetSpec] = None
    subdiff_range: Optional[SetSpec] = None


@dataclass(frozen=True)
class Operator:
    """A maximally monotone operator given by its resolvent and graph test.

    ``resolvent`` maps (gamma, z) to J_{gamma A}(z) for gamma > 0, and
    ``resolvent_kernel`` is its trusted array kernel (module docstring).
    ``dom``/``ran`` describe dom A and ran A.  ``inverse_factory``, when
    present, builds A^{-1} from closed forms; otherwise the generic
    resolvent identity is used.
    """

    name: str
    dim: int
    resolvent: Callable[[float, np.ndarray], np.ndarray]
    resolvent_kernel: Callable[[float, np.ndarray], np.ndarray]
    graph_contains: Callable[[np.ndarray, np.ndarray], bool]
    dom: SetSpec
    ran: SetSpec
    fitzpatrick_gap: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    inverse_factory: Optional[Callable[[], "Operator"]] = None

    def inverse(self):
        if self.inverse_factory is not None:
            return self.inverse_factory()
        return _generic_inverse(self)

    def in_domain(self, x):
        return bool(self.dom.contains(as_vector(x, self.dim, "x")))

    def in_closure_domain(self, x):
        return bool(self.dom.closure_contains(as_vector(x, self.dim, "x")))

    def in_range(self, x_star):
        return bool(self.ran.contains(as_vector(x_star, self.dim, "x_star")))

    def in_closure_range(self, x_star):
        return bool(self.ran.closure_contains(as_vector(x_star, self.dim, "x_star")))


def _generic_inverse(A):
    """A^{-1} from the resolvent identity J_{mu A^{-1}}(w) = w - mu J_{A/mu}(w/mu)."""

    kernel = _flipped(A.resolvent_kernel)

    swapped_fitz = None
    if A.fitzpatrick_gap is not None:
        swapped_fitz = lambda u, u_star: A.fitzpatrick_gap(u_star, u)

    return Operator(
        name=f"inverse({A.name})",
        dim=A.dim,
        resolvent=_validated(kernel, A.dim, "w"),
        resolvent_kernel=kernel,
        graph_contains=lambda y, y_star: A.graph_contains(y_star, y),
        dom=A.ran,
        ran=A.dom,
        fitzpatrick_gap=swapped_fitz,
        inverse_factory=lambda: A,
    )


def conjugate_function(f):
    """The Fenchel conjugate of a catalog function, as a catalog function.

    Roles of value/conjugate, prox/conjugate_prox, and the subdifferential
    domain/range swap.  When f carries no closed-form conjugate prox, the
    Moreau decomposition prox_{sigma f*}(w) = w - sigma*prox_{f/sigma}(w/sigma)
    fills in.
    """
    if f.conjugate_prox is not None:
        star_prox, star_kernel = f.conjugate_prox, f.conjugate_prox_kernel
    else:
        star_kernel = _flipped(f.prox_kernel)
        star_prox = _validated(star_kernel, f.dim, "w")

    swapped_fitz = None
    if f.fitzpatrick_gap is not None:
        swapped_fitz = lambda x, x_star: f.fitzpatrick_gap(x_star, x)

    return ConvexFunction(
        name=f"conjugate({f.name})",
        dim=f.dim,
        value=f.conjugate,
        conjugate=f.value,
        prox=star_prox,
        prox_kernel=star_kernel,
        value_batch=f.conjugate_batch,
        conjugate_batch=f.value_batch,
        gradient=None,
        fitzpatrick_gap=swapped_fitz,
        conjugate_prox=f.prox,
        conjugate_prox_kernel=f.prox_kernel,
        subdiff_domain=f.subdiff_range,
        subdiff_range=f.subdiff_domain,
    )


def subdifferential_operator(f, tol=DEFAULT_TOLERANCES):
    """The operator df for a catalog function f.

    The resolvent is the prox, graph membership is the Fenchel-Young
    equality test G_f(x, x*) <= abs_tol*(1 + ||x|| + ||x*||), and the
    inverse is df* built from the conjugate.
    """
    if f.subdiff_domain is None or f.subdiff_range is None:
        raise ValueError(f"catalog entry '{f.name}' lacks subdifferential domain/range data")

    def graph_contains(x, x_star):
        x = as_vector(x, f.dim, "x")
        x_star = as_vector(x_star, f.dim, "x_star")
        g = f.value(x) + f.conjugate(x_star) - inner(x, x_star)
        return bool(g <= membership_scale(tol, x, x_star))

    return Operator(
        name=f"subdiff({f.name})",
        dim=f.dim,
        resolvent=f.prox,
        resolvent_kernel=f.prox_kernel,
        graph_contains=graph_contains,
        dom=f.subdiff_domain,
        ran=f.subdiff_range,
        fitzpatrick_gap=f.fitzpatrick_gap,
        inverse_factory=lambda: subdifferential_operator(conjugate_function(f), tol),
    )


def inverse_operator(A):
    """A^{-1} as an operator; closed forms when the entry provides them."""
    return A.inverse()


# ---------------------------------------------------------------------------
# energy


def make_energy(dim):
    """f = 0.5*||.||^2 on R^dim.

    Self-conjugate; prox_{gamma f}(z) = z/(1+gamma); Fitzpatrick gap
    0.25*||x - x*||^2; df = Id with full domain and range.
    """
    if dim < 1:
        raise ValueError(f"energy requires dim >= 1, got {dim}")

    def value(x):
        return 0.5 * norm_sq(as_vector(x, dim, "x"))

    def value_batch(points):
        return 0.5 * np.sum(points * points, axis=1)

    def prox_kernel(gamma, z):
        return z / (1.0 + gamma)

    prox = _validated(prox_kernel, dim, "z")

    def fitz_gap(x, x_star):
        d = as_vector(x, dim, "x") - as_vector(x_star, dim, "x_star")
        return 0.25 * norm_sq(d)

    return ConvexFunction(
        name="energy",
        dim=dim,
        value=value,
        conjugate=value,
        prox=prox,
        prox_kernel=prox_kernel,
        value_batch=value_batch,
        conjugate_batch=value_batch,
        gradient=lambda x: as_vector(x, dim, "x").copy(),
        fitzpatrick_gap=fitz_gap,
        conjugate_prox=prox,
        conjugate_prox_kernel=prox_kernel,
        subdiff_domain=_all_space(),
        subdiff_range=_all_space(),
    )


# ---------------------------------------------------------------------------
# subspace indicator


def orthonormal_basis(vectors, dim=None):
    """Orthonormalize by modified Gram-Schmidt with one re-orthogonalization.

    Raises ValueError when the input is rank-deficient.  Returns an array
    of shape (k, dim) whose rows span the same subspace.
    """
    rows = [as_vector(v, dim, f"basis vector {i + 1}") for i, v in enumerate(vectors)]
    if not rows:
        raise ValueError("basis must contain at least one vector")
    dim = rows[0].size
    basis = []
    for i, v in enumerate(rows):
        if v.size != dim:
            raise ValueError(f"basis vector {i + 1} has dimension {v.size}, expected {dim}")
        u = v.copy()
        for _ in range(2):
            for q in basis:
                u = u - np.dot(q, u) * q
        nu = float(np.linalg.norm(u))
        if nu <= 1e-10 * max(1.0, float(np.linalg.norm(v))):
            raise ValueError(f"basis is rank-deficient at vector {i + 1}: {v.tolist()}")
        basis.append(u / nu)
    return np.array(basis)


def make_subspace_indicator(basis, tol=DEFAULT_TOLERANCES):
    """f = indicator of U = span(basis) in R^dim.

    Conjugate is the indicator of the orthogonal complement; the prox is
    the orthogonal projector P_U for every gamma.  Membership tests use
    dist(z, U) <= abs_tol*(1 + ||z||).  df = N_U, the normal cone map,
    with dom N_U = U and ran N_U = U^perp.
    """
    Q = orthonormal_basis(basis)
    dim = Q.shape[1]

    def project(z):
        # rows of z are points, so one call projects a whole stack
        return (z @ Q.T) @ Q

    def in_U(z):
        return float(np.linalg.norm(z - project(z))) <= membership_scale(tol, z)

    def in_Uperp(z):
        return float(np.linalg.norm(project(z))) <= membership_scale(tol, z)

    def value(x):
        return 0.0 if in_U(as_vector(x, dim, "x")) else INF

    def conjugate(x_star):
        return 0.0 if in_Uperp(as_vector(x_star, dim, "x_star")) else INF

    def value_batch(points):
        resid = points - project(points)
        dist = np.linalg.norm(resid, axis=1)
        scale = tol.abs_tol * (1.0 + np.linalg.norm(points, axis=1))
        return np.where(dist <= scale, 0.0, INF)

    def conjugate_batch(points):
        dist = np.linalg.norm(project(points), axis=1)
        scale = tol.abs_tol * (1.0 + np.linalg.norm(points, axis=1))
        return np.where(dist <= scale, 0.0, INF)

    def prox_kernel(gamma, z):
        return project(z)

    def conjugate_prox_kernel(sigma, w):
        return w - project(w)

    def fitz_gap(x, x_star):
        x = as_vector(x, dim, "x")
        x_star = as_vector(x_star, dim, "x_star")
        return 0.0 if (in_U(x) and in_Uperp(x_star)) else INF

    member_U = SetSpec(contains=in_U, closure_contains=in_U)
    member_Uperp = SetSpec(contains=in_Uperp, closure_contains=in_Uperp)

    return ConvexFunction(
        name="subspace",
        dim=dim,
        value=value,
        conjugate=conjugate,
        prox=_validated(prox_kernel, dim, "z"),
        prox_kernel=prox_kernel,
        value_batch=value_batch,
        conjugate_batch=conjugate_batch,
        gradient=None,
        fitzpatrick_gap=fitz_gap,
        conjugate_prox=_validated(conjugate_prox_kernel, dim, "w"),
        conjugate_prox_kernel=conjugate_prox_kernel,
        subdiff_domain=member_U,
        subdiff_range=member_Uperp,
    )


# ---------------------------------------------------------------------------
# Burg entropy


def make_burg():
    """f(x) = -ln(x) for x > 0, +inf otherwise, on R^1.

    Conjugate f*(y) = -1 - ln(-y) for y < 0, +inf otherwise (at y = 0 the
    defining sup diverges).  prox_{gamma f}(z) is the positive root of
    p^2 - z p - gamma = 0; for z < 0 the equivalent form
    2*gamma/(sqrt(z^2 + 4*gamma) - z) avoids cancellation.
    """

    def value(x):
        s = as_vector(x, 1, "x")[0]
        return -math.log(s) if s > 0.0 else INF

    def conjugate(x_star):
        t = as_vector(x_star, 1, "x_star")[0]
        return -1.0 - math.log(-t) if t < 0.0 else INF

    def value_batch(points):
        s = points[:, 0]
        out = np.full(s.shape, INF)
        mask = s > 0.0
        out[mask] = -np.log(s[mask])
        return out

    def conjugate_batch(points):
        t = points[:, 0]
        out = np.full(t.shape, INF)
        mask = t < 0.0
        out[mask] = -1.0 - np.log(-t[mask])
        return out

    def scalar_prox(gamma, s):
        disc = math.sqrt(s * s + 4.0 * gamma)
        if s >= 0.0:
            return 0.5 * (s + disc)
        return 2.0 * gamma / (disc - s)

    def scalar_conjugate_prox(sigma, t):
        disc = math.sqrt(t * t + 4.0 * sigma)
        if t <= 0.0:
            return 0.5 * (t - disc)
        return -2.0 * sigma / (t + disc)

    prox_kernel = _elementwise(scalar_prox)
    conjugate_prox_kernel = _elementwise(scalar_conjugate_prox)

    def gradient(x):
        s = as_vector(x, 1, "x")[0]
        if s <= 0.0:
            raise ValueError(f"gradient of burg is undefined at {s!r}")
        return np.array([-1.0 / s])

    scalar_pos = SetSpec(
        contains=lambda x: x[0] > 0.0,
        closure_contains=lambda x: x[0] >= 0.0,
    )
    scalar_neg = SetSpec(
        contains=lambda x: x[0] < 0.0,
        closure_contains=lambda x: x[0] <= 0.0,
    )

    return ConvexFunction(
        name="burg",
        dim=1,
        value=value,
        conjugate=conjugate,
        prox=_validated(prox_kernel, 1, "z"),
        prox_kernel=prox_kernel,
        value_batch=value_batch,
        conjugate_batch=conjugate_batch,
        gradient=gradient,
        fitzpatrick_gap=None,
        conjugate_prox=_validated(conjugate_prox_kernel, 1, "w"),
        conjugate_prox_kernel=conjugate_prox_kernel,
        subdiff_domain=scalar_pos,
        subdiff_range=scalar_neg,
    )


# ---------------------------------------------------------------------------
# Shannon entropy


def make_shannon():
    """f(x) = x ln(x) - x for x > 0, f(0) = 0, +inf for x < 0, on R^1.

    Conjugate f*(y) = exp(y).  prox_{gamma f}(z) = gamma*W(exp(z/gamma)/gamma)
    evaluated in the log domain, so no exp overflow for any gamma down to
    1e-8.  prox of the conjugate is w - W(sigma*exp(w)).
    """

    def value(x):
        s = as_vector(x, 1, "x")[0]
        if s > 0.0:
            return s * math.log(s) - s
        if s == 0.0:
            return 0.0
        return INF

    def conjugate(x_star):
        t = as_vector(x_star, 1, "x_star")[0]
        return math.exp(t) if t <= _EXP_CEIL else INF

    def value_batch(points):
        s = points[:, 0]
        out = np.full(s.shape, INF)
        pos = s > 0.0
        out[pos] = s[pos] * np.log(s[pos]) - s[pos]
        out[s == 0.0] = 0.0
        return out

    def conjugate_batch(points):
        t = points[:, 0]
        out = np.full(t.shape, INF)
        mask = t <= _EXP_CEIL
        out[mask] = np.exp(t[mask])
        return out

    def scalar_prox(gamma, s):
        return gamma * lambert_w_exp(s / gamma - math.log(gamma))

    def scalar_conjugate_prox(sigma, t):
        return t - lambert_w_exp(t + math.log(sigma))

    prox_kernel = _elementwise(scalar_prox)
    conjugate_prox_kernel = _elementwise(scalar_conjugate_prox)

    def gradient(x):
        s = as_vector(x, 1, "x")[0]
        if s <= 0.0:
            raise ValueError(f"gradient of shannon is undefined at {s!r}")
        return np.array([math.log(s)])

    scalar_pos = SetSpec(
        contains=lambda x: x[0] > 0.0,
        closure_contains=lambda x: x[0] >= 0.0,
    )

    return ConvexFunction(
        name="shannon",
        dim=1,
        value=value,
        conjugate=conjugate,
        prox=_validated(prox_kernel, 1, "z"),
        prox_kernel=prox_kernel,
        value_batch=value_batch,
        conjugate_batch=conjugate_batch,
        gradient=gradient,
        fitzpatrick_gap=None,
        conjugate_prox=_validated(conjugate_prox_kernel, 1, "w"),
        conjugate_prox_kernel=conjugate_prox_kernel,
        subdiff_domain=scalar_pos,
        subdiff_range=_all_space(),
    )


# ---------------------------------------------------------------------------
# rotator


def apply_rotator(x):
    x = as_vector(x, 2, "x")
    return np.array([-x[1], x[0]])


def make_rotator(tol=DEFAULT_TOLERANCES):
    """A(x1, x2) = (-x2, x1), rotation by a quarter turn on R^2.

    Maximally monotone but not a subdifferential.  The resolvent is
    J_{gamma A}(z) = (z1 + gamma z2, -gamma z1 + z2)/(1 + gamma^2); the
    Fitzpatrick function is the indicator of the graph, so the gap is 0
    on the graph and +inf off it.  The inverse is the quarter turn the
    other way.
    """

    def resolvent(gamma, z):
        z0, z1 = z[..., :1], z[..., 1:]
        return np.concatenate((z0 + gamma * z1, -gamma * z0 + z1), axis=-1) / (1.0 + gamma * gamma)

    def graph_contains(x, x_star):
        x = as_vector(x, 2, "x")
        x_star = as_vector(x_star, 2, "x_star")
        return float(np.linalg.norm(apply_rotator(x) - x_star)) <= membership_scale(tol, x, x_star)

    def fitz_gap(x, x_star):
        return 0.0 if graph_contains(x, x_star) else INF

    def make_inverse():
        def inv_resolvent(mu, w):
            w0, w1 = w[..., :1], w[..., 1:]
            return np.concatenate((w0 - mu * w1, mu * w0 + w1), axis=-1) / (1.0 + mu * mu)

        def inv_graph(y, y_star):
            return graph_contains(y_star, y)

        def inv_fitz(u, u_star):
            return 0.0 if inv_graph(u, u_star) else INF

        return Operator(
            name="inverse(rotator)",
            dim=2,
            resolvent=_validated(inv_resolvent, 2, "w"),
            resolvent_kernel=inv_resolvent,
            graph_contains=inv_graph,
            dom=_all_space(),
            ran=_all_space(),
            fitzpatrick_gap=inv_fitz,
            inverse_factory=make_rotator,
        )

    return Operator(
        name="rotator",
        dim=2,
        resolvent=_validated(resolvent, 2, "z"),
        resolvent_kernel=resolvent,
        graph_contains=graph_contains,
        dom=_all_space(),
        ran=_all_space(),
        fitzpatrick_gap=fitz_gap,
        inverse_factory=make_inverse,
    )


# ---------------------------------------------------------------------------
# spec strings

CATALOG_NAMES = ("energy", "subspace", "burg", "shannon", "rotator")


def _parse_keyvals(tokens, spec):
    pairs = {}
    for tok in tokens:
        key, sep, val = tok.partition("=")
        if not sep or not key:
            raise ValueError(f"expected key=value in spec '{spec}', got '{tok}'")
        if key in pairs:
            raise ValueError(f"duplicate key '{key}' in spec '{spec}'")
        pairs[key] = val
    return pairs


def _parse_dim(raw, spec):
    try:
        dim = int(raw)
    except ValueError:
        raise ValueError(f"bad dimension '{raw}' in spec '{spec}'") from None
    if dim < 1:
        raise ValueError(f"bad dimension '{raw}' in spec '{spec}': must be >= 1")
    return dim


def _parse_vector(raw, spec):
    try:
        coords = [float(part) for part in raw.split(",")]
    except ValueError:
        raise ValueError(f"bad vector '{raw}' in spec '{spec}'") from None
    if not coords:
        raise ValueError(f"bad vector '{raw}' in spec '{spec}'")
    return coords


def parse_spec(spec):
    """Build a catalog entry from a string like ``energy:dim=2``.

    Grammar: ``energy:dim=N``, ``subspace:dim=N:basis=v1;v2;...`` with
    comma-separated vector coordinates, and the bare names ``burg``,
    ``shannon``, ``rotator``.  Returns a ConvexFunction or, for
    ``rotator``, an Operator.  Error messages name the offending token.
    """
    if not spec or not spec.strip():
        raise ValueError("empty catalog spec")
    tokens = spec.strip().split(":")
    name = tokens[0]
    pairs = _parse_keyvals(tokens[1:], spec)

    if name == "energy":
        if "dim" not in pairs:
            raise ValueError(f"spec '{spec}' requires dim=N")
        extra = set(pairs) - {"dim"}
        if extra:
            raise ValueError(f"unexpected key '{sorted(extra)[0]}' in spec '{spec}'")
        return make_energy(_parse_dim(pairs["dim"], spec))

    if name == "subspace":
        missing = {"dim", "basis"} - set(pairs)
        if missing:
            raise ValueError(f"spec '{spec}' requires {sorted(missing)[0]}=...")
        extra = set(pairs) - {"dim", "basis"}
        if extra:
            raise ValueError(f"unexpected key '{sorted(extra)[0]}' in spec '{spec}'")
        dim = _parse_dim(pairs["dim"], spec)
        vectors = [_parse_vector(part, spec) for part in pairs["basis"].split(";") if part]
        if not vectors:
            raise ValueError(f"spec '{spec}' has an empty basis")
        for v in vectors:
            if len(v) != dim:
                raise ValueError(
                    f"basis vector '{','.join(str(c) for c in v)}' in spec '{spec}' "
                    f"has dimension {len(v)}, expected {dim}"
                )
        return make_subspace_indicator(vectors)

    if name in ("burg", "shannon", "rotator"):
        if pairs:
            raise ValueError(f"unexpected key '{sorted(pairs)[0]}' in spec '{spec}'")
        if name == "burg":
            return make_burg()
        if name == "shannon":
            return make_shannon()
        return make_rotator()

    raise ValueError(f"unknown catalog entry '{name}'")


def as_operator(entry, tol=DEFAULT_TOLERANCES):
    """Adapt a parsed entry to an Operator: subdifferential for functions."""
    if isinstance(entry, Operator):
        return entry
    return subdifferential_operator(entry, tol)
