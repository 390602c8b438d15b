import math

import numpy as np
import pytest

from proxgap.bounds import carlier_bound, minty_decompose
from proxgap.catalog import subdifferential_operator
from proxgap.oracle import GridSpec, numeric_conjugate, numeric_prox, sampled_fitzpatrick


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(lo=1.0, hi=-1.0)
    with pytest.raises(ValueError):
        GridSpec(points_per_axis=2)
    with pytest.raises(ValueError):
        GridSpec(refine_rounds=-1)
    assert GridSpec().resolve_points(1) == 20001
    assert GridSpec().resolve_points(2) == 201


# --------------------------------------------------------- conjugates


def test_conjugate_energy(energy2):
    res = numeric_conjugate(energy2, np.array([3.0, 0.0]))
    assert abs(res.value - 4.5) <= 1e-4
    assert not res.on_boundary
    assert np.allclose(res.argmax, [3.0, 0.0], atol=1e-2)


def test_conjugate_burg(burg):
    res = numeric_conjugate(burg, np.array([-1.0]))
    assert abs(res.value - (-1.0)) <= 1e-4
    assert not res.on_boundary


def test_conjugate_shannon(shannon):
    res = numeric_conjugate(shannon, np.array([1.0]))
    assert abs(res.value - math.e) <= 1e-4
    assert not res.on_boundary


def test_conjugate_subspace(subspace_e1):
    res = numeric_conjugate(subspace_e1, np.array([0.0, 2.0]))
    # supremum over U of <x, x*> is 0 since x* is orthogonal to U
    assert abs(res.value) <= 1e-9
    assert not res.on_boundary


def test_conjugate_divergence_flagged(energy2):
    # true maximizer x = x* = (60, 0) sits outside the box
    res = numeric_conjugate(energy2, np.array([60.0, 0.0]))
    assert res.on_boundary


def test_conjugate_subspace_divergence(subspace_e1):
    # x* with a component along U makes the supremum infinite
    res = numeric_conjugate(subspace_e1, np.array([1.0, 0.0]))
    assert res.on_boundary


def test_conjugate_rejects_high_dimension():
    from proxgap.catalog import make_energy

    with pytest.raises(ValueError):
        numeric_conjugate(make_energy(3), np.zeros(3))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_conjugate_empty_stack_builds_no_grid(dim):
    import dataclasses

    from proxgap.catalog import make_energy

    f = make_energy(dim)
    calls = []
    counted = dataclasses.replace(f, value_kernel=lambda x: calls.append(x) or f.value_kernel(x))
    assert numeric_conjugate(counted, np.zeros((0, dim))) == []
    assert calls == []


# -------------------------------------------------------------- proxes


def test_prox_energy(energy2):
    got = numeric_prox(energy2, 1.0, np.array([4.0, -2.0]))
    assert np.allclose(got, [2.0, -1.0], atol=1e-6)


def test_prox_burg(burg):
    got = numeric_prox(burg, 1.0, np.array([1.0]))
    want = (1.0 + math.sqrt(5.0)) / 2.0
    assert abs(float(got[0]) - want) <= 1e-6


def test_prox_shannon(shannon):
    got = numeric_prox(shannon, 1.0, np.array([1.0]))
    assert np.allclose(got, shannon.prox(1.0, np.array([1.0])), atol=1e-6)


def test_prox_subspace_infeasible_start(subspace_e1):
    # the minimizer sits inside an infinite plateau; the line scan must
    # still find the feasible axis
    got = numeric_prox(subspace_e1, 1.0, np.array([3.0, 5.0]))
    assert np.allclose(got, [3.0, 0.0], atol=1e-6)


def test_prox_matches_closed_forms_random(request, rng):
    from conftest import draw_domain_point  # noqa: F401

    for name in ("energy2", "burg", "shannon"):
        f = request.getfixturevalue(name)
        for _ in range(5):
            z = rng.uniform(-4.0, 4.0, size=f.dim)
            for gamma in (0.5, 2.0):
                got = numeric_prox(f, gamma, z)
                want = f.prox(gamma, z)
                assert np.max(np.abs(got - want)) <= 1e-5


def test_prox_rejects_high_dimension():
    from proxgap.catalog import make_energy

    with pytest.raises(ValueError):
        numeric_prox(make_energy(4), 1.0, np.zeros(4))


# -------------------------------------------------- sampled fitzpatrick


def test_sampled_fitzpatrick_lower_bounds_carlier(energy2, rng):
    A = subdifferential_operator(energy2)
    x = rng.normal(size=2)
    x_star = rng.normal(size=2)
    pair = minty_decompose(A, 1.0, x, x_star)
    samples = [(pair.a, pair.a_star)]
    for _ in range(10):
        p = rng.normal(size=2)
        samples.append((p, p))  # graph of the identity
    est = sampled_fitzpatrick(A, x, x_star, samples)
    c = carlier_bound(A, 1.0, x, x_star)
    assert est >= c - 1e-9 * (1.0 + abs(c))


def test_sampled_fitzpatrick_graph_point_zero(energy2):
    A = subdifferential_operator(energy2)
    x = np.array([1.0, -2.0])
    est = sampled_fitzpatrick(A, x, x, [(x, x)])
    assert abs(est) <= 1e-12


def test_numeric_prox_rejects_infinite_gamma(energy2):
    with pytest.raises(ValueError, match="gamma must be positive and finite, got inf"):
        numeric_prox(energy2, math.inf, [1.0, 2.0])


def test_sampled_fitzpatrick_validates_samples(burg):
    A = subdifferential_operator(burg)
    with pytest.raises(ValueError, match="sample 1 is not in the graph"):
        sampled_fitzpatrick(A, [1.0], [-1.0], [([2.0], [0.5])])
