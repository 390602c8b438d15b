"""Principal-branch Lambert W on [0, inf), plus an overflow-safe W(e^u).

W(z) is the unique w >= 0 with w * exp(w) = z for z >= 0.  The entropy
prox needs W(exp(u)) for u that can far exceed the overflow threshold of
exp, so ``lambert_w_exp`` solves w + ln w = u directly in that regime.
"""

from __future__ import annotations

import math

# Past this, exp(u) overflows double precision (ln(1.8e308) ~ 709.8).
_EXP_SAFE = 700.0

_HALLEY_ITERS = 50
_STEP_TOL = 1e-14


def lambert_w(z):
    """Principal branch W(z) for z >= 0 by Halley iteration.

    Returns w >= 0 with w * exp(w) = z to roughly full double precision,
    and +inf at z = +inf (W is increasing and unbounded).  Raises
    ValueError for z < 0 (the branch handled here is z >= 0 only).
    """
    z = float(z)
    if math.isnan(z) or z < 0.0:
        raise ValueError(f"lambert_w requires z >= 0, got {z!r}")
    if z == 0.0:
        return 0.0
    if z == math.inf:
        return z

    if z < 0.5 / math.e:
        w = z
    elif z > math.e:
        lz = math.log(z)
        w = lz - math.log(lz)
    else:
        w = 0.5

    for _ in range(_HALLEY_ITERS):
        ew = math.exp(w)
        h = w * ew - z
        denom = ew * (w + 1.0) - (w + 2.0) * h / (2.0 * (w + 1.0))
        step = h / denom
        w -= step
        if abs(step) < _STEP_TOL * (1.0 + abs(w)):
            break
    return w


def lambert_w_exp(u):
    """W(exp(u)) without forming exp(u).

    For u <= 700 this delegates to ``lambert_w``.  For larger u the value
    solves w + ln(w) = u, which Halley handles directly: with
    g(w) = w + ln w - u, g' = 1 + 1/w and g'' = -1/w**2, started from
    w0 = u - ln u (accurate to O(ln u / u)).  At u = +inf it returns +inf.
    """
    u = float(u)
    if math.isnan(u):
        raise ValueError("lambert_w_exp requires a real argument, got nan")
    if u <= _EXP_SAFE:
        return lambert_w(math.exp(u))
    if u == math.inf:
        return u

    w = u - math.log(u)
    for _ in range(_HALLEY_ITERS):
        g = w + math.log(w) - u
        gp = 1.0 + 1.0 / w
        # past w = 1e154, w * w would overflow and -1 / (w * w) round to -0.0
        gpp = -1.0 / (w * w) if w < 1e154 else -0.0
        step = 2.0 * g * gp / (2.0 * gp * gp - g * gpp)
        w -= step
        if abs(step) < _STEP_TOL * (1.0 + abs(w)):
            break
    return w
