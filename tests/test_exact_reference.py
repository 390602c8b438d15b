"""Exact references for the Bregman distance and the Fitzpatrick chain sums.

Energy's Bregman distance 0.5 ||x - y||^2 and every chain sum on its graph
(a* = a) are rational in the float inputs, so ``fractions.Fraction`` gives
their true values.  Burg's and Shannon's Bregman distances, and Burg's gap on
exact input, are compared with 60-digit mpmath.  The points lie near the
graph, at magnitudes 1e-3..1e8 and offsets of 1e-12..1e-1 relative, where
f(x) - f(y) - <x - y, grad f(y)> and the raw pairings <a, a*> cancel.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from proxgap.bounds import bregman_distance, gap
from proxgap.catalog import make_burg, make_energy, make_shannon, subdifferential_operator
from proxgap.cyclic import fitzpatrick_n_lower
from proxgap.oracle import sampled_fitzpatrick

REL_TOL = 1e-12
ROUNDOFF = 2.0**-53
ENERGY3 = make_energy(3)


def _scale(rng):
    return 10.0 ** rng.uniform(-3.0, 8.0)


def _near(rng, centre, scale):
    """``centre`` moved by a random offset of 1e-12..1e-1 times ``scale``."""
    return centre + rng.normal(size=centre.size) * scale * 10.0 ** rng.uniform(-12.0, -1.0)


def _exact(v):
    return [Fraction(c) for c in v.tolist()]


def _dot(u, v):
    return sum(p * q for p, q in zip(u, v))


def _chain_sum(x, x_star, chain):
    """sum_k <a_k - x, a_{k-1}* - a_k*> with a_0* = x*, in exact rationals."""
    x, prev, total = _exact(x), _exact(x_star), Fraction(0)
    for a, a_star in chain:
        a, a_star = _exact(a), _exact(a_star)
        total += _dot([p - q for p, q in zip(a, x)], [p - q for p, q in zip(prev, a_star)])
        prev = a_star
    return total


def _rel(computed, exact):
    return abs(Fraction(computed) - exact) / abs(exact)


def _energy_query(rng):
    """x of scale 1e-3..1e8, x* near x, and 1-5 graph points (a, a) near x."""
    scale = _scale(rng)
    x = rng.normal(size=3) * scale
    chain = [(a, a) for a in (_near(rng, x, scale) for _ in range(int(rng.integers(1, 6))))]
    return x, _near(rng, x, scale), chain


def test_energy_bregman_distance_is_exact():
    rng = np.random.default_rng(1301)
    for _ in range(200):
        scale = _scale(rng)
        y = rng.normal(size=3) * scale
        x = _near(rng, y, scale)
        d = [p - q for p, q in zip(_exact(x), _exact(y))]
        assert _rel(bregman_distance(ENERGY3, x, y), _dot(d, d) / 2) <= REL_TOL, (x, y)


def test_energy_fitzpatrick_chain_is_exact():
    rng = np.random.default_rng(1302)
    A = subdifferential_operator(ENERGY3)
    for _ in range(100):
        x, x_star, chain = _energy_query(rng)
        got = fitzpatrick_n_lower(A, x, x_star, chain)
        assert _rel(got, _chain_sum(x, x_star, chain)) <= REL_TOL, (x, x_star, chain)


def test_energy_sampled_fitzpatrick_is_exact():
    rng = np.random.default_rng(1303)
    A = subdifferential_operator(ENERGY3)
    for _ in range(100):
        x, x_star, samples = _energy_query(rng)
        want = max(_chain_sum(x, x_star, [pair]) for pair in samples)
        assert _rel(sampled_fitzpatrick(A, x, x_star, samples), want) <= REL_TOL, (x, x_star)


def test_sampled_fitzpatrick_keeps_a_small_value_at_a_large_point():
    # the raw pairings are about 1e16 here, so a sum of them cancels to 0.0
    A = subdifferential_operator(make_energy(2))
    x = np.array([1e8, 3e7])
    x_star = x + np.array([1e-3, -2e-3])
    a = x + np.array([0.5, 0.25])
    want = _chain_sum(x, x_star, [(a, a)])
    assert float(want) == -0.3124999990686774
    assert sampled_fitzpatrick(A, x, x_star, [(a, a)]) == -0.3124999990686774
    assert fitzpatrick_n_lower(A, x, x_star, [(a, a)]) == -0.3124999990686774


# Rounding grad f(y) by half an ulp moves the gap G_f(x, x*) by |x - y| u |grad f(y)|
# to first order, since dG/dx* = grad f*(x*) - x is y - x at x* = grad f(y).  The
# gap kernel's own roundings are of the same order: Burg's product x x* moves it
# by about u |x - y| / y, and so does its log1p where |x/y - 1| >= 2^-5 (below,
# its series adds a relative error of a few u only); Shannon's d = x* - ln x is
# off by about u, which moves it by about u |x - y|.  So the bound is
# 3 u |x - y| / y (Burg) and 4 u |x - y| (1 + |ln y|) (Shannon); on 20,000
# draws the worst error was 2.7 and 1.3 of these units.
@pytest.mark.parametrize(
    "f, value, gradient, scale",
    [
        (make_burg(), lambda t: -mpmath.log(t), lambda t: -1 / t, lambda y: 3.0 / y),
        (
            make_shannon(),
            lambda t: t * mpmath.log(t) - t,
            mpmath.log,
            lambda y: 4.0 * (1.0 + abs(math.log(y))),
        ),
    ],
    ids=["burg", "shannon"],
)
def test_bregman_distance_matches_mpmath(f, value, gradient, scale):
    rng = np.random.default_rng(1304)
    with mpmath.workdps(60):
        for _ in range(200):
            y = _scale(rng)
            x = y * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, math.log10(0.3)))
            X, Y = mpmath.mpf(x), mpmath.mpf(y)
            want = value(X) - value(Y) - (X - Y) * gradient(Y)
            err = abs(mpmath.mpf(bregman_distance(f, [x], [y])) - want)
            assert err <= ROUNDOFF * abs(x - y) * scale(y), (x, y)


def test_burg_gap_keeps_its_digits_near_the_graph():
    # x* = -1 makes p = -x x* = x exact, so only phi(p) = p - 1 - ln p rounds;
    # q - log1p(q) at q = p - 1 missed by up to 2u/|q|, 1.7e-4 at |q| = 1e-12
    f = make_burg()
    rng = np.random.default_rng(2205)
    with mpmath.workdps(60):
        for _ in range(1000):
            x = 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -1.0)
            want = (mpmath.mpf(x) - 1) - mpmath.log(x)
            assert abs(gap(f, [x], [-1.0]) - want) <= 1e-14 * want, x
