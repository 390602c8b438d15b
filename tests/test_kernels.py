"""Differential tests of the array kernels against the public scalar maps.

Row i of a kernel call on a stack of points must match the public call on
point i to within 4 ulp, for every catalog entry and every derived path:
the closed-form inverse, the generic resolvent flip and the Moreau
conjugate-prox fallback.  The drivers built on the kernels (gamma sweeps
and the cyclic series) are checked against plain loops over the public
API.
"""

import dataclasses

import numpy as np
import pytest

from proxgap import catalog
from proxgap.analysis import gamma_sweep
from proxgap.bounds import carlier_bound
from proxgap.catalog import conjugate_function, subdifferential_operator
from proxgap.cyclic import GammaSchedule, generate_cyclic_sequence

ULPS = 4
ROWS = 200

FUNCTIONS = {
    "energy:dim=3": lambda: catalog.make_energy(3),
    "subspace": lambda: catalog.make_subspace_indicator([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
    "burg": catalog.make_burg,
    "shannon": catalog.make_shannon,
}


def _operators():
    """Every resolvent path: name -> operator."""
    ops = {}
    for name, make in FUNCTIONS.items():
        op = subdifferential_operator(make())
        ops[name] = op
        ops[f"{name}/closed-inverse"] = op.inverse()
        ops[f"{name}/generic-inverse"] = dataclasses.replace(op, inverse_factory=None).inverse()
        bare = dataclasses.replace(make(), conjugate_prox=None)
        ops[f"{name}/moreau-inverse"] = subdifferential_operator(conjugate_function(bare))
    rot = catalog.make_rotator()
    ops["rotator"] = rot
    ops["rotator/closed-inverse"] = rot.inverse()
    ops["rotator/generic-inverse"] = dataclasses.replace(rot, inverse_factory=None).inverse()
    return ops


OPERATORS = _operators()


def _points(rng, dim, m=ROWS):
    """Points with log-uniform magnitudes in [1e-3, 1e8] and random signs."""
    size = 10.0 ** rng.uniform(-3.0, 8.0, size=(m, 1))
    return rng.choice([-1.0, 1.0], size=(m, dim)) * size * rng.uniform(0.1, 1.0, size=(m, dim))


def _gammas(rng, m=ROWS):
    return 10.0 ** rng.uniform(-8.0, 8.0, size=m)


def assert_within_ulps(got, want, ulps=ULPS):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    allowed = ulps * np.spacing(np.maximum(np.abs(got), np.abs(want)))
    bad = ~((got == want) | (np.abs(got - want) <= allowed))
    assert not bad.any(), f"{int(bad.sum())} entries differ, first at {np.argwhere(bad)[0]}"


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_resolvent_kernel_rows_match_public_calls(name, rng):
    op = OPERATORS[name]
    z = _points(rng, op.dim)
    gammas = _gammas(rng)
    stacked = op.resolvent_kernel(gammas[:, None], z)
    assert stacked.shape == z.shape
    scalar = np.array([op.resolvent(g, row) for g, row in zip(gammas, z)])
    assert_within_ulps(stacked, scalar)
    # one point with a float gamma is a stack of one
    single = op.resolvent_kernel(float(gammas[0]), z[0])
    assert single.shape == (op.dim,)
    assert_within_ulps(single, scalar[0])


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_prox_kernels_rows_match_public_calls(name, rng):
    f = FUNCTIONS[name]()
    for fallback in (f, dataclasses.replace(f, conjugate_prox=None)):
        star = conjugate_function(fallback)
        for public, kernel in ((f.prox, f.prox_kernel), (star.prox, star.prox_kernel)):
            z = _points(rng, f.dim)
            gammas = _gammas(rng)
            want = np.array([public(g, row) for g, row in zip(gammas, z)])
            assert_within_ulps(kernel(gammas[:, None], z), want)


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_gamma_sweep_matches_carlier_loop(name, rng):
    op = OPERATORS[name]
    for x, x_star in zip(_points(rng, op.dim, 5), _points(rng, op.dim, 5)):
        sweep = gamma_sweep(op, x, x_star)
        want = [carlier_bound(op, g, x, x_star) for g in sweep.gammas]
        assert_within_ulps(sweep.values, want)


def _plain_series(A, x, x_star, gammas):
    """The cyclic recursion as a loop over the public resolvent."""
    a_star = np.asarray(x_star, dtype=float)
    points, terms = [], []
    for gamma in gammas:
        z = x + gamma * a_star
        a = A.resolvent(gamma, z)
        d = x - a
        terms.append(float(np.dot(d, d)) / gamma)
        a_star = (z - a) / gamma
        points.append((a, a_star))
    return points, np.array(terms)


def _assert_same_series(seq, points, terms):
    assert seq.terms.tobytes() == terms.tobytes()
    assert seq.partial_sums.tobytes() == np.cumsum(terms).tobytes()
    for (a, a_star), (want_a, want_a_star) in zip(seq.points, points):
        assert a.tobytes() == want_a.tobytes()
        assert a_star.tobytes() == want_a_star.tobytes()


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_series_is_bit_identical_to_plain_loop(name, rng):
    op = OPERATORS[name]
    n = 300
    for x, x_star, gamma in zip(_points(rng, op.dim, 4), _points(rng, op.dim, 4), _gammas(rng, 4)):
        for schedule in (GammaSchedule.const(gamma), GammaSchedule.from_values(_gammas(rng, n))):
            seq = generate_cyclic_sequence(op, x, x_star, schedule, n)
            _assert_same_series(seq, *_plain_series(op, x, x_star, schedule.resolve(n)))


def test_series_stops_at_its_fixed_point(energy2, rng):
    # (x, x) is a graph point of energy and, at gamma = 1, every step
    # returns it exactly, so one resolvent call fills all the rows
    calls = []
    op = subdifferential_operator(energy2)

    def kernel(gamma, z):
        calls.append(gamma)
        return op.resolvent_kernel(gamma, z)

    counting = dataclasses.replace(op, resolvent_kernel=kernel)
    x = _points(rng, 2, 1)[0]
    schedule = GammaSchedule.const(1.0)
    seq = generate_cyclic_sequence(counting, x, x, schedule, 50)
    assert len(calls) == 1
    _assert_same_series(seq, *_plain_series(op, x, x, schedule.resolve(50)))


def test_sweep_raises_on_non_finite_z(energy2):
    A = subdifferential_operator(energy2)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            gamma_sweep(A, [1.0, 0.0], [1e305, 0.0])
        # the generic flip rescales its point to w/mu, which overflows here
        flip = dataclasses.replace(A, inverse_factory=None).inverse()
        with pytest.raises(ValueError, match="non-finite"):
            gamma_sweep(flip, [1e10, 0.0], [1.0, 0.0], lo=1e-300, hi=1e-290, count=5)


def test_series_raises_on_non_finite_z(energy2):
    A = subdifferential_operator(energy2)
    with np.errstate(over="ignore", invalid="ignore"):
        # z overflows at the first step
        with pytest.raises(ValueError, match="non-finite"):
            generate_cyclic_sequence(A, [1.0, 0.0], [1e305, 0.0], GammaSchedule.const(1e10), 5)
        # and at a later step, under an explicit schedule
        schedule = GammaSchedule.from_values([1.0, 1.0, 1e308, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            generate_cyclic_sequence(A, [1.0, 0.0], [5.0, 0.0], schedule, 4)
