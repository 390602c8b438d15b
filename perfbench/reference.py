"""mpmath reference for the Carlier bound of every chain-queries entry.

C_{A,gamma}(x, x*) = ||x - J_{gamma A}(x + gamma x*)||^2 / gamma is
evaluated at 100 significant digits from the exact binary values of the
float inputs, with each resolvent in closed form.  Nothing here calls
proxgap.
"""

from mpmath import mp, mpf

_DPS = 100


def _subspace_resolvent(gamma, z):
    # projector onto span{(1, 0, 0), (0, 1, 1)}
    mid = (z[1] + z[2]) / 2
    return [z[0], mid, mid]


def _burg_resolvent(gamma, z):
    s = z[0]
    disc = mp.sqrt(s * s + 4 * gamma)
    return [(s + disc) / 2 if s >= 0 else 2 * gamma / (disc - s)]


def _shannon_resolvent(gamma, z):
    # gamma * W(exp(u)) with u = z/gamma - ln(gamma); for u > 1 solve
    # w + ln(w) = u, which stays well conditioned for any size of u
    u = z[0] / gamma - mp.log(gamma)
    if u > 1:
        w = mp.findroot(lambda t: t + mp.log(t) - u, u - mp.log(u))
    else:
        w = mp.lambertw(mp.exp(u)).real
    return [gamma * w]


def _rotator_resolvent(gamma, z):
    scale = 1 + gamma * gamma
    return [(z[0] + gamma * z[1]) / scale, (-gamma * z[0] + z[1]) / scale]


def _resolvent(spec, gamma, z):
    if spec.startswith("energy"):
        return [c / (1 + gamma) for c in z]
    if spec.startswith("subspace"):
        return _subspace_resolvent(gamma, z)
    return {"burg": _burg_resolvent, "shannon": _shannon_resolvent, "rotator": _rotator_resolvent}[
        spec
    ](gamma, z)


def carlier_relative_error(spec, gamma, x, x_star, value):
    """Relative distance of ``value`` from the exact Carlier bound."""
    with mp.workdps(_DPS):
        g = mpf(float(gamma))
        xs = [mpf(float(c)) for c in x]
        zs = [a + g * mpf(float(b)) for a, b in zip(xs, x_star)]
        a = _resolvent(spec, g, zs)
        exact = sum((xi - ai) ** 2 for xi, ai in zip(xs, a)) / g
        if exact == 0:
            return 0.0 if value == 0.0 else float("inf")
        return float(abs(mpf(float(value)) - exact) / exact)
