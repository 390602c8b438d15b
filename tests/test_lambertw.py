import math
import warnings

import numpy as np
import pytest
import scipy.special

from proxgap.lambertw import lambert_w, lambert_w_exp

# Omega constant: the unique w with w*exp(w) = 1.
OMEGA = 0.5671432904097838


def test_known_values():
    assert lambert_w(0.0) == 0.0
    assert abs(lambert_w(math.e) - 1.0) <= 1e-15
    assert abs(lambert_w(1.0) - OMEGA) <= 1e-15


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        lambert_w(-0.1)


def test_residuals_across_scales():
    for z in np.logspace(-8, 8, 33):
        w = lambert_w(float(z))
        res = w * math.exp(w) - z
        assert abs(res) <= 1e-12 * (1.0 + z)


def test_monotone():
    ws = [lambert_w(z) for z in (0.5, 1.0, 2.0, 10.0)]
    assert all(a < b for a, b in zip(ws, ws[1:]))


def test_agrees_with_scipy(rng):
    for z in rng.uniform(0.0, 100.0, size=50):
        ref = float(scipy.special.lambertw(z).real)
        assert abs(lambert_w(float(z)) - ref) <= 1e-12 * (1.0 + abs(ref))


def test_lambert_w_exp_matches_direct_form():
    for u in (-5.0, 0.0, 1.0, 10.0, 100.0, 600.0):
        direct = lambert_w(math.exp(u))
        assert abs(lambert_w_exp(u) - direct) <= 1e-12 * (1.0 + abs(direct))


def test_lambert_w_exp_log_domain_residuals():
    # Beyond u ~ 709 exp(u) overflows; the solver must keep going on
    # w + ln w = u without ever forming exp(u).
    for u in (710.0, 1000.0, 1e5, 1e8):
        w = lambert_w_exp(u)
        assert math.isfinite(w)
        assert abs(w + math.log(w) - u) <= 1e-9 * (1.0 + abs(u))


def test_lambert_w_exp_large_u_asymptotics():
    # w = u - ln u + O(ln u / u) for large u
    u = 1e6
    w = lambert_w_exp(u)
    assert abs(w - (u - math.log(u))) < 1e-3


def test_infinity_maps_to_infinity():
    # W is increasing and unbounded, so W(inf) = W(exp(inf)) = inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lambert_w(math.inf) == math.inf
        assert lambert_w_exp(math.inf) == math.inf


def _lambert_w_exp_squaring(u):
    """The log-domain Halley loop with g'' = -1/(w*w) formed at every w."""
    w = u - math.log(u)
    for _ in range(50):
        g = w + math.log(w) - u
        gp = 1.0 + 1.0 / w
        gpp = -1.0 / (w * w)
        step = 2.0 * g * gp / (2.0 * gp * gp - g * gpp)
        w -= step
        if abs(step) < 1e-14 * (1.0 + abs(w)):
            break
    return w


def test_lambert_w_exp_keeps_its_bits_without_squaring_huge_w():
    # past w = 1e154, g'' is taken as -0.0 instead of squaring w, which
    # overflows from about 1.34e154; no result may change by a single bit
    grid = np.geomspace(700.5, 1e308, 20001)
    us = np.concatenate((grid, np.linspace(9e153, 1.5e154, 2001), [np.finfo(float).max]))
    got = [lambert_w_exp(u) for u in us.tolist()]
    want = [_lambert_w_exp_squaring(u) for u in us.tolist()]
    assert np.array_equal(np.array(got), np.array(want))
