"""Differential tests of the array kernels against the public scalar maps.

Row i of a value or conjugate kernel call on a stack of points must equal
the public call on point i bit for bit, for every catalog function and its
conjugate.  Row i of a prox or resolvent kernel call must match the public
call to within 4 ulp, for every catalog entry and every derived path: the
closed-form inverse, the generic resolvent flip and the Moreau
conjugate-prox fallback.  A one-point call of a resolvent or gap kernel
must equal a stack of one bit for bit, and neither may raise a warning.
The drivers built on the kernels (gamma sweeps and the cyclic series,
including its stops at a fixed point or a 2-cycle) are checked against
plain loops over the public API, and the cyclic series' loop on Python
floats against its loop on arrays.
"""

import dataclasses
import functools
import struct

import numpy as np
import pytest
from conftest import moreau_fallback, resolvent_paths

from proxgap import catalog, cyclic
from proxgap.analysis import gamma_sweep
from proxgap.bounds import carlier_bound
from proxgap.catalog import conjugate_function, subdifferential_operator
from proxgap.core import MEMBERSHIP_TOL
from proxgap.cyclic import GammaSchedule, generate_cyclic_sequence, series_bound

ULPS = 4
ROWS = 200

FUNCTIONS = {
    "energy:dim=3": lambda: catalog.make_energy(3),
    "subspace": lambda: catalog.make_subspace_indicator([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
    "burg": catalog.make_burg,
    "shannon": catalog.make_shannon,
}


OPERATORS = resolvent_paths({name: make() for name, make in FUNCTIONS.items()})


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


def _edge_rows(f):
    """Rows on both sides of each domain edge of a catalog function.

    The entropies get zeros, tiny and huge magnitudes of both signs and
    the Shannon conjugate's exp ceiling at 690; the subspace gets points of
    U and of U-perp moved off them by half and twice the membership
    tolerance MEMBERSHIP_TOL*(1 + ||z||).
    """
    if f.dim == 1:
        ceil = 690.0
        edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, -745.0]
        edges += [689.9, ceil, np.nextafter(ceil, np.inf), 700.0]
        return np.array(edges)[:, None]
    if f.name != "subspace":
        return np.empty((0, f.dim))
    u_dir = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    perp_dir = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
    rows = []
    for size in (1e-3, 1.0, 1e6):
        for base, off in ((u_dir, perp_dir), (perp_dir, u_dir)):
            for factor in (0.5, 2.0):
                step = factor * MEMBERSHIP_TOL * (1.0 + size)
                rows.append(size * base + step * off)
    return np.array(rows)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_value_kernels_rows_equal_public_calls(name, rng):
    f = FUNCTIONS[name]()
    x = np.vstack([_points(rng, f.dim), _edge_rows(f)])
    for g in (f, conjugate_function(f)):
        for public, kernel in ((g.value, g.value_kernel), (g.conjugate, g.conjugate_kernel)):
            stacked = kernel(x)
            assert stacked.shape == (len(x),)
            want = np.array([public(row) for row in x])
            assert stacked.tobytes() == want.tobytes()
            # one point is a stack of one
            assert np.ndim(kernel(x[-1])) == 0
    if f.name == "subspace":
        # half the tolerance off U (or U-perp) is in, twice is out
        edges = _edge_rows(f)
        assert (f.value_kernel(edges[0::4]) == 0.0).all()
        assert (f.value_kernel(edges[1::4]) == np.inf).all()
        assert (f.conjugate_kernel(edges[2::4]) == 0.0).all()
        assert (f.conjugate_kernel(edges[3::4]) == np.inf).all()


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
    for fallback in (f, moreau_fallback(f)):
        star = conjugate_function(fallback)
        for public, kernel in ((f.prox, f.prox_kernel), (star.prox, star.prox_kernel)):
            z = _points(rng, f.dim)
            gammas = _gammas(rng)
            want = np.array([public(g, row) for g, row in zip(gammas, z)])
            assert_within_ulps(kernel(gammas[:, None], z), want)


# (gamma, z) where the formula overflows: Shannon's z/gamma, and the
# rotator's plain sum z1 + gamma z2 while gamma * max(|gamma|, |z|) is finite
OVERFLOW_ROWS = {
    "shannon": [(1e-10, [1e300])],
    "rotator": [(0.9, [1.7e308, 1.7e308])],
}


def _one_point_rows(name, rng):
    """(gammas, points): _points, the edge rows of the function an operator
    path comes from, and the operator's rows in OVERFLOW_ROWS."""
    op = OPERATORS[name]
    base = FUNCTIONS.get(name.split("/")[0])
    edges = np.empty((0, op.dim)) if base is None else _edge_rows(base())
    z = np.vstack([_points(rng, op.dim), edges])
    overflow = OVERFLOW_ROWS.get(name, [])
    g = np.concatenate([_gammas(rng, len(z)), [gamma for gamma, _ in overflow]])
    return g, np.vstack([z] + [[point] for _, point in overflow])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_one_point_resolvent_equals_a_stack_of_one(name, rng):
    # the operators' resolvent kernels are every prox and conjugate prox
    # kernel: closed forms, resolvent flips and Moreau fallbacks
    kernel = OPERATORS[name].resolvent_kernel
    g, z = _one_point_rows(name, rng)
    for i in range(len(z)):
        want = kernel(g[i:i + 1, None], z[i:i + 1])[0]
        got = kernel(float(g[i]), z[i])
        assert got.tobytes() == want.tobytes(), (i, g[i], z[i])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_one_point_gap_equals_a_stack_of_one(name, rng):
    f = FUNCTIONS[name]()
    x = np.vstack([_points(rng, f.dim), _edge_rows(f)])
    pairs = [(x, rng.permutation(x))]
    if f.gradient is not None:
        # near the graph, where the entropies take their series branches
        inside = _points(rng, f.dim)
        inside = np.abs(inside) if f.dim == 1 else inside
        near = np.array([f.gradient(row) for row in inside])
        pairs.append((inside, near * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, near.shape))))
    for x, x_star in pairs:
        for u, v in ((x, x_star), (x_star, x)):
            for i in range(len(u)):
                want = f.gap_kernel(u[i:i + 1], v[i:i + 1])[0]
                got = f.gap_kernel(u[i], v[i])
                assert type(got) is np.float64
                assert got.tobytes() == want.tobytes(), (i, u[i], v[i])


@pytest.mark.parametrize("name", ["burg", "shannon"])
def test_entropy_gap_kernels_pair_rows_strictly(name, rng):
    # one row against three is a caller's error, not a broadcast
    f = FUNCTIONS[name]()
    x = np.abs(_points(rng, 1, 3))
    with pytest.raises(ValueError):
        f.gap_kernel(x[:1], -x)


def test_subspace_gap_is_the_sum_of_its_indicators(rng):
    # x in U and x* in U-perp, each within the tolerance of its own norm
    f = FUNCTIONS["subspace"]()
    edges = _edge_rows(f)
    x = np.repeat(edges, len(edges), axis=0)
    x_star = np.tile(edges, (len(edges), 1))
    want = f.value_kernel(x) + f.conjugate_kernel(x_star)
    assert (want == 0.0).any() and (want == np.inf).any()
    assert f.gap_kernel(x, x_star).tobytes() == want.tobytes()
    assert [f.gap_kernel(u, v) for u, v in zip(x, x_star)] == want.tolist()


BASES = [
    [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
    [[1.0, 2.0, 3.0]],
    [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
]


@pytest.mark.parametrize("basis", BASES)
def test_subspace_projector_equals_matmul(basis, rng):
    # np.dot makes the BLAS calls of @: the same bits, for points and stacks
    f = catalog.make_subspace_indicator(basis)
    Q = catalog.orthonormal_basis(basis)
    z = _points(rng, f.dim, 500)
    assert f.prox_kernel(1.0, z).tobytes() == ((z @ Q.T) @ Q).tobytes()
    for row in z:
        assert f.prox_kernel(1.0, row).tobytes() == ((row @ Q.T) @ Q).tobytes()


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


# (x, x*, gamma) of the sweeps benchmark's tasks on seeds 1-3 whose recursion
# ends in a 2-cycle under a constant schedule
TWO_CYCLES = {
    "burg": [
        (679623.5514768796, -2.706614734409087, 0.002414579417239972),
        (685745.0367301084, -1.456339848188516e-06, 1.7134619951990313),
        (1441.772922153891, -30958.844877057476, 3.4034930614513456e-06),
        (228837.06378623316, -4.369921351246163e-06, 65220.95470025571),
        (408.97926815455577, -0.0024447533118283926, 7417.9185741740275),
        (56534431.73858685, -2.5114813639105975, 4252800.02047402),
    ],
    "shannon": [
        (2302877.7778091766, 9264881.31856487, 0.5893658866933558),
        (57137.44928346627, -192126.65244849387, 1.2216788949553085e-08),
        (3261261.2000463847, 14.997624550191684, 111.32228078719372),
        (1065517.7634560887, -39.14707071194873, 0.0029295489001004006),
    ],
}


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_series_is_bit_identical_to_plain_loop(name, rng):
    op = OPERATORS[name]
    n = 300
    inputs = list(zip(_points(rng, op.dim, 4), _points(rng, op.dim, 4), _gammas(rng, 4)))
    inputs += [(np.array([x]), np.array([x_star]), g) for x, x_star, g in TWO_CYCLES.get(name, ())]
    for x, x_star, gamma in inputs:
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
    # the same step sizes listed take every step
    calls.clear()
    seq = generate_cyclic_sequence(counting, x, x, GammaSchedule.from_values([1.0] * 50), 50)
    assert len(calls) == 50
    _assert_same_series(seq, *_plain_series(op, x, x, schedule.resolve(50)))


def test_series_stops_at_a_two_cycle(burg):
    # on this sweeps task a_3* equals a_1* bit for bit, and a_2* differs, so
    # three resolvent calls fill all the rows; started from a_1*, the chain
    # returns to its start, x*, at the second step
    calls = []
    op = subdifferential_operator(burg)

    def kernel(gamma, z):
        calls.append(gamma)
        return op.resolvent_kernel(gamma, z)

    counting = dataclasses.replace(op, resolvent_kernel=kernel)
    x, x_star, gamma = TWO_CYCLES["burg"][1]
    x = np.array([x])
    schedule = GammaSchedule.const(gamma)
    seq = generate_cyclic_sequence(counting, x, [x_star], schedule, 51)
    assert len(calls) == 3
    assert seq.a_star[2].tobytes() == seq.a_star[0].tobytes() != seq.a_star[1].tobytes()
    _assert_same_series(seq, *_plain_series(op, x, [x_star], schedule.resolve(51)))
    calls.clear()
    start = seq.a_star[0]
    again = generate_cyclic_sequence(counting, x, start, schedule, 50)
    assert len(calls) == 2
    _assert_same_series(again, *_plain_series(op, x, start, schedule.resolve(50)))
    # a values= schedule never stops early
    calls.clear()
    listed_schedule = GammaSchedule.from_values([gamma] * 51)
    listed = generate_cyclic_sequence(counting, x, [x_star], listed_schedule, 51)
    assert len(calls) == 51
    _assert_same_series(listed, *_plain_series(op, x, [x_star], schedule.resolve(51)))


# the entries whose resolvent kernel is one formula on Python floats, so that
# their series steps call it on Python floats
FLOAT_LOOP = sorted(
    name for name, op in OPERATORS.items() if hasattr(op.resolvent_kernel, "formula")
)


def _low_dim_operators():
    """Every entry of at most ``cyclic._FLOAT_DIM`` coordinates, whose series
    runs on Python floats: those of :data:`OPERATORS` and the energies and
    subspaces of a few more dims, each with its closed-form and generic
    inverses."""
    ops = {name: op for name, op in OPERATORS.items() if op.dim <= cyclic._FLOAT_DIM}
    specs = [f"energy:dim={dim}" for dim in range(1, cyclic._FLOAT_DIM + 1)]
    specs += ["subspace:dim=2:basis=1,0", "subspace:dim=2:basis=1,1"]
    for spec in specs:
        op = subdifferential_operator(catalog.parse_spec(spec))
        ops[spec] = op
        ops[f"{spec}/closed-inverse"] = op.inverse()
        ops[f"{spec}/generic-inverse"] = dataclasses.replace(op, inverse_factory=None).inverse()
    return ops


LOW_DIM = _low_dim_operators()


def _loops(op):
    """The kernels the two loops of ``op``'s series get, with their calls
    counted, and the list of calls both append to.  The array loop gets a
    plain closure, which copies no attribute; the float loop gets it too
    where the kernel has no formula, and else the kernel wrapped as a tracer
    wraps it, whose ``formula`` is counted."""
    calls = []
    kernel = op.resolvent_kernel

    def plain(gamma, z):
        calls.append(gamma)
        return kernel(gamma, z)

    formula = getattr(kernel, "formula", None)
    if formula is None:
        return plain, plain, calls

    def counted(gamma, *z):
        calls.append(gamma)
        return formula(gamma, *z)

    @functools.wraps(kernel)
    def wrapped(gamma, z):
        calls.append(gamma)
        return kernel(gamma, z)

    wrapped.formula = counted
    return wrapped, plain, calls


def _same_on_both_loops(loops, x, x_star, schedule, n):
    """``cyclic._float_steps`` and ``cyclic._array_steps`` on the kernels of
    :func:`_loops`: the same steps, period, bytes of every filled row and
    number of resolvent calls.  Returns the filled rows of a* and that
    number."""
    floats, arrays, calls = loops
    x, x_star = np.asarray(x, dtype=float), np.asarray(x_star, dtype=float)
    gammas, constant = schedule.resolve(n).tolist(), schedule.constant is not None
    runs = []
    for steps, kernel in ((cyclic._float_steps, floats), (cyclic._array_steps, arrays)):
        calls.clear()
        a, a_star = np.empty((2, n, x.size))
        # as generate_cyclic_sequence runs them
        with np.errstate(invalid="ignore", over="ignore"):
            taken, period = steps(kernel, x, x_star, gammas, constant, a, a_star)
        runs.append((taken, period, a[:taken].tobytes(), a_star[:taken].tobytes(), len(calls)))
    assert runs[0] == runs[1]
    return a_star[:taken], len(calls)


def test_float_loop_entries():
    # Burg, Shannon, energy and the rotator, and their closed-form inverses
    assert FLOAT_LOOP == [
        "burg", "burg/closed-inverse", "energy:dim=3", "energy:dim=3/closed-inverse",
        "rotator", "rotator/closed-inverse", "shannon", "shannon/closed-inverse",
    ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", range(1, cyclic._FLOAT_DIM + 1))
def test_energy_formula_is_its_kernel_on_floats(dim, rng):
    # the same IEEE division as numpy's z / (1 + gamma), bit for bit; packed
    # bytes tell -0.0 from 0.0
    kernel = catalog.make_energy(dim).prox_kernel
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308, 1.7e308, -1.7e308]
    specials += [1.7976931348623157e308, -1.7976931348623157e308]
    rows = _points(rng, dim)
    mask = rng.random(rows.shape) < 0.5
    rows[mask] = rng.choice(specials, size=int(mask.sum()))
    gammas = np.concatenate([[1e-300, 1.0, 1e300], 10.0 ** rng.uniform(-300.0, 300.0, len(rows) - 3)])
    pack = struct.Struct(f"{dim}d").pack
    for gamma, z in zip(gammas.tolist(), rows.tolist()):
        assert pack(*kernel.formula(gamma, *z)) == pack(*kernel(gamma, np.array(z)).tolist())


def test_series_loop_is_chosen_by_dim(monkeypatch):
    # up to cyclic._FLOAT_DIM coordinates the series steps on Python floats,
    # one coordinate on float locals, past it on arrays
    taken = []
    for name in ("_float_steps", "_scalar_steps", "_array_steps"):
        steps = getattr(cyclic, name)
        monkeypatch.setattr(
            cyclic, name, lambda *args, name=name, steps=steps: taken.append(name) or steps(*args)
        )
    for dim in (1, 2, cyclic._FLOAT_DIM, cyclic._FLOAT_DIM + 1, 64):
        op = subdifferential_operator(catalog.make_energy(dim))
        generate_cyclic_sequence(op, np.ones(dim), np.zeros(dim), GammaSchedule.const(1.0), 3)
    assert taken == ["_float_steps", "_scalar_steps"] + ["_float_steps"] * 2 + ["_array_steps"] * 2
    # the scalar path gives the array loop's steps, period and row bytes at
    # Burg's 2-cycles, and from x* = -0.0, whose first step returns a* = 0.0:
    # equal, not the same bits, so the loop stops at the second step
    loops = _loops(LOW_DIM["burg"])
    for x, x_star, gamma in TWO_CYCLES["burg"]:
        taken.clear()
        _same_on_both_loops(loops, [x], [x_star], GammaSchedule.const(gamma), 50)
        assert taken == ["_float_steps", "_scalar_steps", "_array_steps"]
    taken.clear()
    energy = _loops(LOW_DIM["energy:dim=1"])
    a_star, steps = _same_on_both_loops(energy, [0.0], [-0.0], GammaSchedule.const(1.0), 5)
    assert steps == 2 and a_star.tobytes() == np.zeros((2, 1)).tobytes()
    assert taken == ["_float_steps", "_scalar_steps", "_array_steps"]
    # and the array loop's error where z is first non-finite, at the third step
    # here: a_2* is about -3.5 and gamma_3 = 1e308
    gammas, calls = [1.0, 1.0, 1e308, 1.0], loops[2]
    calls.clear()
    taken.clear()
    for loop, kernel in ((cyclic._float_steps, loops[0]), (cyclic._array_steps, loops[1])):
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ValueError) as error:
                loop(kernel, np.array([1.0]), np.array([-5.0]), gammas, False, *np.empty((2, 4, 1)))
        assert str(error.value) == cyclic._NON_FINITE_Z
    assert calls == [1.0, 1.0] + gammas  # the float loop stops before its third call
    assert taken == ["_float_steps", "_scalar_steps", "_array_steps"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(LOW_DIM))
def test_float_loop_matches_array_loop(name, rng):
    op = LOW_DIM[name]
    loops = _loops(op)
    floats, arrays, calls = loops
    n = 300
    inputs = list(zip(_points(rng, op.dim, 4), _points(rng, op.dim, 4), _gammas(rng, 4)))
    inputs += [(np.array([x]), np.array([x_star]), g) for x, x_star, g in TWO_CYCLES.get(name, ())]
    inputs.append((np.full(op.dim, -0.0), np.zeros(op.dim), 1.0))
    # the float loop of a kernel with a formula also steps on one point, as
    # it does for a wrapper that copies no attributes
    both_ways = [loops] if floats is arrays else [loops, (arrays, arrays, calls)]
    for x, x_star, gamma in inputs:
        for both in both_ways:
            _same_on_both_loops(both, x, x_star, GammaSchedule.const(gamma), n)
            # a values= schedule never stops early
            schedule = GammaSchedule.from_values(_gammas(rng, n))
            assert _same_on_both_loops(both, x, x_star, schedule, n)[1] == n


def test_float_loop_stops_on_bits(rotator):
    # a_1* = (0.0, 0.0) equals x* = (-0.0, -0.0) but differs in its bits, so
    # the fixed point stops the loop at the second step
    zero, minus_zero = np.array([0.0, 0.0]), np.array([-0.0, -0.0])
    loops = _loops(rotator)
    a_star, steps = _same_on_both_loops(loops, zero, minus_zero, GammaSchedule.const(2.0), 5)
    assert steps == 2
    assert a_star.tobytes() == np.zeros((2, 2)).tobytes()
    seq = generate_cyclic_sequence(rotator, zero, minus_zero, GammaSchedule.const(2.0), 5)
    assert seq.a_star.tobytes() == np.zeros((5, 2)).tobytes()


@pytest.mark.filterwarnings("error")
def test_float_loop_last_step_edge(rotator):
    # the resolvent at z = x is (1.2, 0.4) * 1.7e308, past the float range in
    # its first coordinate: one step ends on a* = (-inf, inf), whose next z
    # is not finite
    x, x_star, schedule = np.array([1.7e308, 1.7e308]), np.zeros(2), GammaSchedule.const(0.5)
    loops = _loops(rotator)
    a_star, _ = _same_on_both_loops(loops, x, x_star, schedule, 1)
    assert a_star.tolist() == [[-np.inf, np.inf]]
    seq = generate_cyclic_sequence(rotator, x, x_star, schedule, 1)
    assert seq.a.tolist() == [[np.inf, 6.8e307]]
    assert seq.terms.tolist() == [np.inf]
    for steps, kernel in ((cyclic._float_steps, loops[0]), (cyclic._array_steps, loops[1])):
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ValueError, match="z = x \\+ gamma\\*a_star has non-finite entries"):
                steps(kernel, x, x_star, [0.5, 0.5], True, *np.empty((2, 2, 2)))
    with pytest.raises(ValueError, match="z = x \\+ gamma\\*a_star has non-finite entries"):
        generate_cyclic_sequence(rotator, x, x_star, schedule, 2)


@pytest.mark.filterwarnings("error")
def test_series_overflowing_terms_do_not_warn(energy2):
    # ||x - a_k||^2 overflows in every term; the steps stay finite
    A = subdifferential_operator(energy2)
    total, terms = series_bound(A, [1e308, 1e308], [0.0, 0.0], GammaSchedule.const(0.5), 3)
    assert terms == [np.inf] * 3 and total == np.inf


@pytest.mark.filterwarnings("error")
def test_series_overflowing_projection_raises_only_the_recursion_error():
    # P z overflows at the first step, so the next z is not finite
    A = subdifferential_operator(catalog.parse_spec("subspace:dim=3:basis=1,0,0;0,1,1"))
    with pytest.raises(ValueError, match="z = x \\+ gamma\\*a_star has non-finite entries"):
        series_bound(A, [0.0, 1.7e308, 1.7e308], np.zeros(3), GammaSchedule.const(0.5), 3)


def test_sweep_raises_on_non_finite_z(energy2):
    A = subdifferential_operator(energy2)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            gamma_sweep(A, [1.0, 0.0], [1e305, 0.0])


@pytest.mark.filterwarnings("error")
def test_generic_flip_raises_one_error_where_w_over_mu_overflows(energy2):
    # the generic flip rescales its point to w/mu, which overflows here; its
    # finiteness check is the one error, with no numpy warning before it
    flip = dataclasses.replace(subdifferential_operator(energy2), inverse_factory=None).inverse()
    with pytest.raises(ValueError, match=r"^z = w/mu has non-finite entries"):
        gamma_sweep(flip, [1e10, 0.0], [1.0, 0.0], lo=1e-300, hi=1e-290, count=5)
    with pytest.raises(ValueError, match=r"^z = w/mu has non-finite entries"):
        flip.resolvent(0.5, [1e308, 0.0])


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
