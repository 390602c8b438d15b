"""Differential and work-count tests of the grid oracles.

``numeric_conjugate`` runs a stack round by round and evaluates f once
per distinct refinement box; ``numeric_prox`` skips a coordinate search
that could only repeat the last one on its axis.  The reference copies
below are the plain forms: every query refined on its own boxes, and
every sweep searched until it moves less than 1e-12.  Both oracles must
give their results bit for bit, and must do the smaller amount of work
that the shortcuts promise.
"""

import dataclasses

import numpy as np
import pytest

from proxgap import catalog, verify
from proxgap.core import INF, as_vector
from proxgap.oracle import (
    GridMax,
    GridSpec,
    _golden,
    _grid,
    _line_points,
    _scan,
    numeric_conjugate,
    numeric_prox,
)

# ------------------------------------------------------ reference copies


def _ref_scan_box(f, x_star, lows, highs, n):
    points = _grid(lows, highs, n)
    return _scan(points, f.value_kernel(points), x_star, lows, highs)


def ref_numeric_conjugate(f, x_star, grid=GridSpec()):
    """Query-major: each query runs all of its refinement rounds in turn."""
    if f.dim > 2:
        raise ValueError(f"numeric_conjugate supports dim <= 2, got {f.dim}")
    one = np.ndim(x_star) != 2
    queries = [as_vector(q, f.dim, "x_star") for q in ([x_star] if one else x_star)]
    n = grid.resolve_points(f.dim)

    lows = np.full(f.dim, grid.lo)
    highs = np.full(f.dim, grid.hi)
    points = _grid(lows, highs, n)
    values = f.value_kernel(points)
    spacing = (grid.hi - grid.lo) / (n - 1)
    results = []
    for q in queries:
        best_val, best_arg = _scan(points, values, q, lows, highs)
        half_width = 0.5 * (grid.hi - grid.lo)
        for _ in range(grid.refine_rounds):
            half_width /= 10.0
            box_lo = np.clip(best_arg - half_width, grid.lo, grid.hi)
            box_hi = np.clip(best_arg + half_width, grid.lo, grid.hi)
            val, arg = _ref_scan_box(f, q, box_lo, box_hi, n)
            if val > best_val:
                best_val, best_arg = val, arg

        if best_val == -INF:
            raise ValueError("objective is -inf on the entire grid")

        on_boundary = bool(
            np.any(best_arg <= grid.lo + spacing) or np.any(best_arg >= grid.hi - spacing)
        )
        results.append(GridMax(value=best_val, argmax=best_arg, on_boundary=on_boundary))
    return results[0] if one else results


def ref_numeric_prox(f, gamma, z, grid=GridSpec(), sweeps=200):
    """No skip: every sweep searches every axis."""
    if f.dim > 3:
        raise ValueError(f"numeric_prox supports dim <= 3, got {f.dim}")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    z = as_vector(z, f.dim, "z")

    def objective(p):
        d = p - z
        return 0.5 * float(np.dot(d, d)) + gamma * f.value_kernel(p)

    def objective_batch(points):
        d = points - z
        return 0.5 * np.sum(d * d, axis=1) + gamma * f.value_kernel(points)

    p = np.clip(z, grid.lo, grid.hi)
    best = objective(p)
    ts = np.linspace(grid.lo, grid.hi, 1001)
    for _ in range(sweeps):
        moved = 0.0
        for axis in range(f.dim):
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
        if moved < 1e-12:
            break
    return p


# ---------------------------------------------------------- comparisons


def _fields(result):
    return (result.value, result.argmax.tobytes(), result.on_boundary)


def assert_conjugates_equal(f, stack, grid=GridSpec(), one_point=False):
    got = numeric_conjugate(f, stack, grid)
    want = ref_numeric_conjugate(f, stack, grid)
    assert [_fields(g) for g in got] == [_fields(w) for w in want]
    if one_point:
        for q, g in zip(stack, got):
            assert _fields(numeric_conjugate(f, q, grid)) == _fields(g)


def assert_proxes_equal(f, queries, grid=GridSpec()):
    for gamma, z in queries:
        got = numeric_prox(f, gamma, z, grid)
        assert got.tobytes() == ref_numeric_prox(f, gamma, z, grid).tobytes(), (gamma, z)


@pytest.mark.parametrize("seed", range(20))
def test_verify_queries_equal_reference(seed):
    rng = np.random.default_rng(seed)
    for f in verify.function_entries():
        stack = np.reshape(verify.conjugate_queries(f, rng, 5), (-1, f.dim))
        assert_conjugates_equal(f, stack)
        assert_proxes_equal(f, verify.prox_queries(f, rng, 5))


@pytest.mark.parametrize(
    "f",
    [
        catalog.make_energy(1),
        catalog.make_energy(3),
        catalog.make_subspace_indicator([[1.0, 2.0, 0.5]]),
    ],
    ids=["energy1", "energy3", "subspace3"],
)
def test_random_prox_queries_equal_reference(f):
    rng = np.random.default_rng(17)
    queries = [(10.0 ** rng.uniform(-2.0, 2.0), rng.uniform(-5.0, 5.0, f.dim)) for _ in range(8)]
    assert_proxes_equal(f, queries)


@pytest.mark.parametrize(
    "grid", [GridSpec(refine_rounds=0), GridSpec(points_per_axis=5)], ids=["rounds0", "n5"]
)
def test_other_grids_equal_reference(grid):
    rng = np.random.default_rng(3)
    for f in verify.function_entries():
        stack = np.reshape(verify.conjugate_queries(f, rng, 5), (-1, f.dim))
        assert_conjugates_equal(f, stack, grid, one_point=True)
        assert_proxes_equal(f, verify.prox_queries(f, rng, 3), grid)


def test_boundary_query_equals_reference(energy2):
    stack = np.array([[60.0, 0.0], [1.0, -2.0], [60.0, 0.0]])
    assert_conjugates_equal(energy2, stack, one_point=True)
    assert numeric_conjugate(energy2, np.array([60.0, 0.0])).on_boundary


def test_minus_inf_everywhere_raises_as_reference():
    bare = dataclasses.replace(
        catalog.make_burg(), value_kernel=lambda x: np.full(x.shape[:-1], INF)[()]
    )
    for oracle_call in (numeric_conjugate, ref_numeric_conjugate):
        with pytest.raises(ValueError, match="-inf on the entire grid"):
            oracle_call(bare, np.array([[-1.0], [-2.0]]))


# ------------------------------------------------------------ work count


def _counting(f, rows):
    """f with a value kernel that counts its calls on ``rows`` points."""
    calls = []

    def value_kernel(x):
        if np.ndim(x) == 2 and len(x) == rows:
            calls.append(len(x))
        return f.value_kernel(x)

    return dataclasses.replace(f, value_kernel=value_kernel), calls


@pytest.mark.parametrize("name, grids, ref_grids", [("subspace", 4, 16), ("energy", 16, 16)])
def test_conjugate_stack_grid_evaluations(name, grids, ref_grids):
    # the subspace queries (0, t) all tie to the incumbent (0, 0), so their
    # refinement boxes coincide in every round
    f = {e.name: e for e in verify.function_entries()}[name]
    stack = np.reshape(verify.conjugate_queries(f, np.random.default_rng(1), 5), (-1, 2))
    counted, calls = _counting(f, 201**2)
    numeric_conjugate(counted, stack)
    assert len(calls) == grids
    calls.clear()
    ref_numeric_conjugate(counted, stack)
    assert len(calls) == ref_grids


@pytest.mark.parametrize("name", ["burg", "shannon"])
def test_one_dimensional_prox_scans_its_line_once(name):
    f = {e.name: e for e in verify.function_entries()}[name]
    counted, calls = _counting(f, 1001)
    for gamma, z in verify.prox_queries(f, np.random.default_rng(2), 5):
        numeric_prox(counted, gamma, z)
        assert len(calls) == 1
        calls.clear()
        ref_numeric_prox(counted, gamma, z)
        assert len(calls) == 2
        calls.clear()
