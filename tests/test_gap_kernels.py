"""The closed-form Fenchel-Young gap kernels of the catalog functions.

Each function entry computes G_f(x, x*) = f(x) + f*(x*) - <x, x*> in a
form that does not cancel near the graph of df.  These tests hold the
kernels to a 50-digit mpmath reference of the defining sum, over
magnitudes from 1e-3 to 1e8 and near-graph points, and require the rows
of a stack to equal one-point calls bit for bit.
"""

import math

import mpmath
import numpy as np
import pytest

from proxgap.catalog import conjugate_function, make_energy
from proxgap.core import INF

mpmath.mp.dps = 50

MAGNITUDES = np.logspace(-3.0, 8.0, 23)
MOVES = np.logspace(-12.0, -2.0, 11)


def _energy_ref(x, x_star):
    return sum((mpmath.mpf(a) - mpmath.mpf(b)) ** 2 for a, b in zip(x, x_star)) / 2


def _burg_ref(x, x_star):
    s, t = mpmath.mpf(x[0]), mpmath.mpf(x_star[0])
    return -mpmath.log(s) - 1 - mpmath.log(-t) - s * t


def _shannon_ref(x, x_star):
    s, t = mpmath.mpf(x[0]), mpmath.mpf(x_star[0])
    return (s * mpmath.log(s) - s if s > 0 else 0) + mpmath.exp(t) - s * t


def _grid_and_near_graph(name, rng):
    """(x, x*) pairs: every pair of magnitudes from MAGNITUDES with signs and
    directions from rng, then graph points moved by a relative MOVES."""
    pairs = []
    for r in MAGNITUDES:
        for q in MAGNITUDES:
            if name == "energy":
                u, v = rng.normal(size=(2, 2))
                pairs.append((r * u / np.linalg.norm(u), q * v / np.linalg.norm(v)))
            else:
                pairs += [([r], [-q]), ([r], [q])]
    for r in MAGNITUDES:
        for move in MOVES:
            sign = rng.choice([-1.0, 1.0])
            if name == "energy":
                x = r * rng.normal(size=2)
                u = rng.normal(size=2)
                pairs.append((x, x + move * np.linalg.norm(x) * u / np.linalg.norm(u)))
            elif name == "burg":
                pairs.append(([r], [-(1.0 + sign * move) / r]))
            else:
                pairs.append(([r], [math.log(r) + sign * move * abs(math.log(r))]))
    return [(np.array(x, dtype=float), np.array(x_star, dtype=float)) for x, x_star in pairs]


# the energy reproduction: the sum f(x) + f*(x*) - <x, x*> gives 0.0 here
ENERGY_REPRODUCTION = (np.array([1e8, 1e8]), np.array([100000000.0001, 1e8]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "name, ref", [("energy", _energy_ref), ("burg", _burg_ref), ("shannon", _shannon_ref)]
)
def test_gap_kernel_matches_the_mpmath_sum(request, rng, name, ref):
    f = request.getfixturevalue("energy2" if name == "energy" else name)
    pairs = _grid_and_near_graph(name, rng)
    if name == "energy":
        pairs.append(ENERGY_REPRODUCTION)
    for x, x_star in pairs:
        g = float(f.gap_kernel(x, x_star))
        assert g >= 0.0, (x, x_star, g)
        outside = f.value_kernel(x) == INF or f.conjugate_kernel(x_star) == INF
        assert (g == INF) == outside, (x, x_star, g)
        if not outside:
            want = ref(x, x_star)
            assert abs(g - want) <= 1e-12 * (1 + want), (x, x_star, g, float(want))


def test_the_summed_gap_fails_the_reference_on_the_energy_reproduction(energy2):
    x, x_star = ENERGY_REPRODUCTION
    want = _energy_ref(x, x_star)
    summed = energy2.value_kernel(x) + energy2.conjugate_kernel(x_star) - np.vecdot(x, x_star)
    assert abs(float(summed) - want) > 1e-12 * (1 + want)
    assert abs(float(energy2.gap_kernel(x, x_star)) - want) <= 1e-12 * (1 + want)


def _edge_pairs(name):
    """Stacks of (x, x*) rows that reach each branch of an entry's kernel."""
    if name == "energy64":
        rows = np.random.default_rng(5).normal(size=(6, 2, 64)) * np.logspace(-3, 8, 6)[:, None, None]
        return rows[:, 0], rows[:, 1]
    if name == "burg":
        # outside the domain on either side, at 0, near the graph, below p = 0.5
        x = [1.0, -1.0, 0.0, 1.0, 2.0, 3.0, 1e-3, 1e8, 5e-324, 1.0]
        x_star = [-1.0, -1.0, -1.0, 0.0, 1.0, -0.33333333, -1e-3, -2e-8, -1e-3, -0.999999999999]
    elif name == "shannon":
        # x = 0, x* at and past the exp ceiling, d small, past 1, very negative
        x = [0.0, 0.0, 1.0, 1.0, 1.0, -1.0, math.e, 1e-3, 1e8, 1e8, 1e-300]
        x_star = [2.0, -3.0, 690.0, 700.0, 1e8, 0.0, 1.0 + 1e-9, 5.0, -1e8, 18.42, 10.0]
    else:
        # U = span{(1, 0)}: x off U and x* off U-perp by half and by twice the
        # membership tolerance MEMBERSHIP_TOL * (1 + ||.||), with ||.|| about 1
        half, twice = 0.5 * 1e-9 * 2.0, 2.0 * 1e-9 * 2.0
        x = [[1.0, half], [1.0, twice], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [3.0, -half]]
        x_star = [[0.0, 1.0], [0.0, 1.0], [half, 1.0], [twice, 1.0], [0.0, 0.0], [-half, 1.0]]
        return np.array(x), np.array(x_star)
    return np.array(x)[:, None], np.array(x_star)[:, None]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["energy2", "energy64", "subspace_e1", "burg", "shannon"])
@pytest.mark.parametrize("side", ["function", "conjugate"])
def test_gap_kernel_rows_equal_one_point_calls(request, name, side):
    f = make_energy(64) if name == "energy64" else request.getfixturevalue(name)
    x, x_star = _edge_pairs("energy64" if name == "energy2" else name)
    if name == "energy2":
        x, x_star = x[:, :2], x_star[:, :2]
    if side == "conjugate":
        f, x, x_star = conjugate_function(f), x_star, x
    rows = f.gap_kernel(x, x_star)
    assert rows.shape == (len(x),)
    for i in range(len(x)):
        one = f.gap_kernel(x[i], x_star[i])
        assert np.ndim(one) == 0
        assert float(rows[i]).hex() == float(one).hex()
        assert one >= 0.0


def test_gap_kernel_edge_values(subspace_e1, burg, shannon):
    x, x_star = _edge_pairs("subspace_e1")
    assert subspace_e1.gap_kernel(x, x_star).tolist() == [0.0, INF, 0.0, INF, 0.0, 0.0]
    x, x_star = _edge_pairs("burg")
    assert burg.gap_kernel(x, x_star)[:4].tolist() == [0.0, INF, INF, INF]
    x, x_star = _edge_pairs("shannon")
    g = shannon.gap_kernel(x, x_star)
    assert g[:2].tolist() == [math.exp(2.0), math.exp(-3.0)]
    assert math.isfinite(g[2]) and g[3] == INF and g[4] == INF and g[5] == INF
