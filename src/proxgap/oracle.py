"""Brute-force oracles used to check the catalog's closed forms.

Nothing in the product path calls this module; it exists so tests can
confront every closed-form conjugate and prox with an independent
numeric estimate.  Conjugates come from a refined grid maximization of
<x, x*> - f(x); proxes from golden-section search (cyclic over
coordinates beyond one dimension).

Neither oracle redoes work whose result is already fixed: a stack of
conjugate queries evaluates f once per distinct refinement box in each
round, and the coordinate search skips a search that could only repeat
the last one on its axis.  Both shortcuts are exact, so every result is
bit for bit that of the plain per-query, per-sweep loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import INF, as_gamma, as_vector, chain_sum, graph_chain

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# the search box [LO, HI] on every axis; the conjugate grid's points per axis
# by dimension and its refinement rounds; the prox's sweeps and golden section
LO, HI = -50.0, 50.0
POINTS_PER_AXIS = {1: 20001, 2: 201}
REFINE_ROUNDS = 3
SWEEPS = 200
GOLDEN_ITERS, GOLDEN_XTOL = 200, 1e-11


@dataclass(frozen=True)
class GridMax:
    """Result of a grid maximization.

    ``on_boundary`` means the final incumbent sits on the edge of the
    original box, i.e. divergence of the supremum is suspected.
    """

    value: float
    argmax: np.ndarray
    on_boundary: bool


def _grid(lows, highs, n):
    """The n^dim points of the box, first axis slowest (meshgrid "ij" order)."""
    dim = len(lows)
    points = np.empty((n,) * dim + (dim,))
    for i in range(dim):
        points[..., i] = np.linspace(lows[i], highs[i], n).reshape((-1,) + (1,) * (dim - 1 - i))
    return points.reshape(-1, dim)


def _scan(points, values, x_star, lows, highs):
    """The best grid point for <x, x*> - f(x), given f on the grid."""
    objective = points @ x_star
    objective -= values
    objective[np.isnan(objective)] = -INF
    top = float(np.max(objective))
    if top == -INF:
        return top, points[0]
    # break ties toward the box center so a flat objective does not fake
    # a boundary incumbent
    near = objective >= top - 1e-12 * (1.0 + abs(top))
    center = 0.5 * (lows + highs)
    cand = points[np.flatnonzero(near)]  # row indices: a mask over rows indexes slowly
    idx = int(np.argmin(np.sum((cand - center) ** 2, axis=1)))
    return top, cand[idx]


def _scan_box(f, queries, lows, highs, n):
    """_scan on the grid of the box for each query of a list; f is
    evaluated on the grid once."""
    points = _grid(lows, highs, n)
    values = f.value_kernel(points)
    return [_scan(points, values, q, lows, highs) for q in queries]


def numeric_conjugate(f, x_star):
    """Estimate f*(x*) = sup_x <x, x*> - f(x) from below on a grid.

    Supports dim <= 2.  Each refinement round shrinks the box tenfold
    around the incumbent (clipped to the original box).  An incumbent
    that ends on the original boundary is flagged: the true supremum is
    then suspected to be +inf.

    ``x_star`` is one point, giving one GridMax, or a ``(k, dim)`` stack
    of queries, giving a list of k GridMax.  A stack runs round by round:
    its queries share the round-0 scan of the whole box, and in each
    refinement round the queries whose boxes are equal byte for byte
    share one evaluation of f on that box (tied incumbents, as on a flat
    objective, give such boxes).  A query's box depends only on its own
    incumbent, and a shared box is the same grid with the same f values,
    so each result equals the one-point call on its query.  One box and
    its values are alive at a time.  An empty stack gives [] and no grid.
    """
    one = np.ndim(x_star) != 2
    if not one and len(x_star) == 0:
        return []
    if f.dim > 2:
        raise ValueError(f"numeric_conjugate supports dim <= 2, got {f.dim}")
    queries = [as_vector(q, f.dim, "x_star") for q in ([x_star] if one else x_star)]
    n = POINTS_PER_AXIS[f.dim]

    best = _scan_box(f, queries, np.full(f.dim, LO), np.full(f.dim, HI), n)
    half_width = 0.5 * (HI - LO)
    for _ in range(REFINE_ROUNDS):
        half_width /= 10.0
        boxes = {}
        for i, (_, arg) in enumerate(best):
            box_lo = np.clip(arg - half_width, LO, HI)
            box_hi = np.clip(arg + half_width, LO, HI)
            key = (box_lo.tobytes(), box_hi.tobytes())
            boxes.setdefault(key, (box_lo, box_hi, []))[2].append(i)
        for box_lo, box_hi, members in boxes.values():
            scans = _scan_box(f, [queries[i] for i in members], box_lo, box_hi, n)
            for i, (val, arg) in zip(members, scans):
                if val > best[i][0]:
                    best[i] = (val, arg)

    spacing = (HI - LO) / (n - 1)
    results = []
    for best_val, best_arg in best:
        if best_val == -INF:
            raise ValueError("objective is -inf on the entire grid")
        on_boundary = bool(np.any(best_arg <= LO + spacing) or np.any(best_arg >= HI - spacing))
        results.append(GridMax(value=best_val, argmax=best_arg, on_boundary=on_boundary))
    return results[0] if one else results


def _line_points(p, axis, ts):
    points = np.repeat(p[None, :], ts.size, axis=0)
    points[:, axis] = ts
    return points


def _golden(g, a, b):
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    gc = g(c)
    gd = g(d)
    for _ in range(GOLDEN_ITERS):
        if b - a < GOLDEN_XTOL:
            break
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - _INVPHI * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _INVPHI * (b - a)
            gd = g(d)
    mid = 0.5 * (a + b)
    return mid, g(mid)


def numeric_prox(f, gamma, z):
    """Minimize 0.5*||p - z||^2 + gamma*f(p) by coordinate golden section.

    Supports dim <= 3.  Each coordinate pass first scans the line on a
    coarse batch grid to bracket the minimizer (this steps over +inf
    plateaus), then golden-section refines; updates are accepted only
    when the objective improves.

    A search on an axis is skipped when every other axis has been
    searched since its last search and none of those searches changed p
    or best.  Its line through p does not depend on p's coordinate on
    the axis, so it would scan the same values and run the same bracket
    and golden section as that last search, whose result p already holds
    (accepted) or best already beats (rejected).  Every later search is
    then skipped in the same way, so p is returned as final.  In one
    dimension this drops the sweep that only confirms the first.
    """
    if f.dim > 3:
        raise ValueError(f"numeric_prox supports dim <= 3, got {f.dim}")
    gamma = as_gamma(gamma)
    z = as_vector(z, f.dim, "z")

    def objective(p):
        d = p - z
        return 0.5 * float(np.dot(d, d)) + gamma * f.value_kernel(p)

    def objective_batch(points):
        d = points - z
        return 0.5 * np.sum(d * d, axis=1) + gamma * f.value_kernel(points)

    p = np.clip(z, LO, HI)
    best = objective(p)
    ts = np.linspace(LO, HI, 1001)
    quiet = 0  # searches since the last accepted update of p and best
    for sweep in range(SWEEPS):
        moved = 0.0
        for axis in range(f.dim):
            if sweep and quiet >= f.dim - 1:
                return p
            quiet += 1
            line_vals = objective_batch(_line_points(p, axis, ts))
            finite = np.isfinite(line_vals)
            if not np.any(finite):
                continue
            idx = int(np.argmin(np.where(finite, line_vals, INF)))
            lo_b = ts[max(idx - 1, 0)]
            hi_b = ts[min(idx + 1, ts.size - 1)]

            def along(t, axis=axis):
                q = p.copy()
                q[axis] = t
                return objective(q)

            # keep the scanned grid candidate: golden section can miss
            # minimizers isolated inside an infinite plateau
            t_new, val_new = _golden(along, lo_b, hi_b)
            if float(line_vals[idx]) < val_new:
                t_new, val_new = float(ts[idx]), float(line_vals[idx])
            if val_new < best:
                moved = max(moved, abs(t_new - p[axis]))
                p = p.copy()
                p[axis] = t_new
                best = val_new
                quiet = 0
        if moved < 1e-12:
            break
    return p


def sampled_fitzpatrick(A, x, x_star, samples):
    """Lower estimate of F_A(x, x*) - <x, x*> from explicit graph samples:
    the largest <a - x, x* - a*> over the samples (a, a*).

    Every sample must lie in gr A (checked; ValueError names the
    offender).  The estimate increases toward the true value as the
    samples fill the graph.
    """
    x = as_vector(x, A.dim, "x")
    x_star = as_vector(x_star, A.dim, "x_star")
    return max(chain_sum(x, x_star, [pair]) for pair in graph_chain(A, samples, "sample"))
