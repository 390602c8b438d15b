import math

import mpmath
import numpy as np
import pytest

from proxgap import bounds, catalog
from proxgap.core import INF, MEMBERSHIP_TOL
from proxgap.catalog import (
    CATALOG_NAMES,
    conjugate_function,
    orthonormal_basis,
    parse_spec,
    subdifferential_operator,
)

ALL_FUNCTIONS = ["energy2", "subspace_e1", "burg", "shannon"]

# float.hex of the hand-written forms that the derived kernels replaced,
# recorded before the change, at edge inputs below the large-gamma switch
BURG_CONJUGATE_PINS = [
    ("-0x0.0p+0", "inf"),
    ("0x0.0p+0", "inf"),
    ("-0x0.0000000000001p-1022", "0x1.73b85446d71c3p+9"),
    ("-0x1.0000000000000p-1022", "0x1.61b2bdd7abcd2p+9"),
    ("-0x1.56e1fc2f8f359p-997", "0x1.58e3447f87fb5p+9"),
    ("-0x1.b7cdfd9d7bdbbp-34", "0x1.6069e2aa2aa5bp+4"),
    ("-0x1.0000000000000p-1", "-0x1.3a37a020b8c22p-2"),
    ("-0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
    ("-0x1.5bf0a8b145769p+1", "-0x1.0000000000000p+1"),
    ("-0x1.8000000000000p+1", "-0x1.0c9f53d568186p+1"),
    ("-0x1.2a05f20000000p+33", "-0x1.8069e2aa2aa5bp+4"),
    ("-0x1.7dddf6b095ff1p+511", "-0x1.63991d5d62a5ep+8"),
    ("-0x1.7e43c8800759cp+996", "-0x1.59e3447f87fb5p+9"),
    ("-0x1.fffffffffffffp+1023", "-0x1.63642fefa39efp+9"),
    ("0x0.0000000000001p-1022", "inf"),
    ("0x1.0000000000000p+0", "inf"),
    ("0x1.fffffffffffffp+1023", "inf"),
]
BURG_CONJUGATE_PROX_PINS = [
    ("0x1.56e1fc2f8f359p-997", "0x0.0p+0", "-0x1.a2fe76a3f9475p-499"),
    ("0x1.56e1fc2f8f359p-997", "-0x0.0p+0", "-0x1.a2fe76a3f9475p-499"),
    ("0x1.56e1fc2f8f359p-997", "0x0.0000000000001p-1022", "-0x1.a2fe76a3f9475p-499"),
    ("0x1.56e1fc2f8f359p-997", "-0x0.0000000000001p-1022", "-0x1.a2fe76a3f9475p-499"),
    ("0x1.0000000000000p+0", "0x0.0p+0", "-0x1.0000000000000p+0"),
    ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.3c6ef372fe94fp-1"),
    ("0x1.0000000000000p+0", "-0x1.0000000000000p+0", "-0x1.9e3779b97f4a8p+0"),
    ("0x1.0000000000000p-1", "0x1.8000000000000p+1", "-0x1.443949feb79a1p-3"),
    ("0x1.0000000000000p-1", "-0x1.8000000000000p+1", "-0x1.9443949feb79ap+1"),
    ("0x1.5798ee2308c3ap-27", "0x1.a36e2eb1c432dp-14", "-0x1.0338e4ecbe880p-14"),
    ("0x1.5798ee2308c3ap-27", "-0x1.a36e2eb1c432dp-14", "-0x1.535389cf415d6p-13"),
    ("0x1.7d78400000000p+26", "0x1.4000000000000p+1", "-0x1.38760028f5c29p+13"),
    ("0x1.7d78400000000p+26", "-0x1.4000000000000p+1", "-0x1.388a0028f5c29p+13"),
    ("0x1.0000000000000p+0", "0x1.d1a94a2000000p+39", "-0x1.19799812dea11p-40"),
    ("0x1.0000000000000p+0", "-0x1.d1a94a2000000p+39", "-0x1.d1a94a2000000p+39"),
    ("0x1.7e43c8800759cp+996", "0x1.0000000000000p+0", "-0x1.38d352e5096afp+498"),
    ("0x1.7e43c8800759cp+996", "-0x1.317e5ef3ab327p+508", "-0x1.317e72f8ff0ffp+508"),
    ("0x1.56e1fc2f8f359p-997", "0x1.7e43c8800759cp+996", "-0x0.0p+0"),
    ("0x1.56e1fc2f8f359p-997", "-0x1.7e43c8800759cp+996", "-0x1.7e43c8800759cp+996"),
    ("0x1.0000000000000p+0", "0x1.fffffffffffffp+1023", "-0x0.4000000000000p-1022"),
    ("0x1.0000000000000p+0", "-0x1.fffffffffffffp+1023", "-0x1.fffffffffffffp+1023"),
    ("0x1.6c8e5ca239029p+1016", "0x1.c000000000000p+2", "-0x1.317e5ef3ab327p+508"),
]
ROTATOR_INVERSE_RESOLVENT_PINS = [
    ("0x1.56e1fc2f8f359p-997", ("0x1.0000000000000p+0", "-0x1.0000000000000p+1"),
     ("0x1.0000000000000p+0", "-0x1.0000000000000p+1")),
    ("0x1.56e1fc2f8f359p-997", ("0x0.0p+0", "-0x0.0p+0"),
     ("0x0.0p+0", "0x0.0p+0")),
    ("0x1.0000000000000p+0", ("0x1.0000000000000p+1", "0x0.0p+0"),
     ("0x1.0000000000000p+0", "0x1.0000000000000p+0")),
    ("0x1.0000000000000p+0", ("-0x0.0p+0", "0x0.0p+0"),
     ("-0x0.0p+0", "0x0.0p+0")),
    ("0x1.6666666666666p-1", ("0x1.3333333333333p-2", "-0x1.3333333333333p+0"),
     ("0x1.87bb4671655e7p-1", "-0x1.54301b7d6c3dep-1")),
    ("0x1.999999999999ap-4", ("0x0.0000000000001p-1022", "-0x0.0000000000001p-1022"),
     ("0x0.0000000000001p-1022", "-0x0.0000000000001p-1022")),
    ("0x1.8000000000000p+1", ("0x1.7e43c8800759cp+996", "0x1.7e43c8800759cp+996"),
     ("-0x1.31cfd3999f7b0p+994", "0x1.31cfd3999f7b0p+995")),
    ("0x1.5798ee2308c3ap-27", ("0x1.56e1fc2f8f359p-997", "0x1.4000000000000p+2"),
     ("-0x1.ad7f29abcaf48p-25", "0x1.4000000000000p+2")),
    ("0x1.7d78400000000p+26", ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
     ("-0x1.5798ede9635e7p-27", "0x1.5798ee5cae28dp-27")),
    ("0x1.38d352e5096afp+498", ("0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
     ("0x1.a2fe76a3f9476p-499", "0x1.a2fe76a3f9476p-499")),
    ("0x1.7dddf6b095ff1p+511", ("0x1.8000000000000p+1", "0x1.0000000000000p+2"),
     ("-0x1.573d68f903ea2p-510", "0x1.016e0ebac2efap-510")),
    # mu * mu overflows here, so the rows are divided through by mu: the
    # undivided form gave (-0.0, -0.0) for the true (-2e-300, -1e-300)
    ("0x1.7e43c8800759cp+996", ("-0x1.0000000000000p+0", "0x1.0000000000000p+1"),
     ("-0x1.56e1fc2f8f359p-996", "-0x1.56e1fc2f8f359p-997")),
    ("0x1.0000000000000p-1", ("-0x1.c000000000000p+2", "0x0.012688b70e62bp-1022"),
     ("-0x1.6666666666666p+2", "-0x1.6666666666666p+1")),
    ("0x1.a2fe76a3f9475p-499", ("0x1.38d352e5096afp+498", "-0x1.38d352e5096afp+498"),
     ("0x1.38d352e5096afp+498", "-0x1.38d352e5096afp+498")),
    ("0x1.9000000000000p+6", ("-0x1.4f8b588e368f1p-17", "0x1.86a0000000000p+16"),
     ("-0x1.f3f3338716096p+9", "0x1.3ff7ced916872p+3")),
    ("0x1.47ae147ae147bp-7", ("0x1.8000000000000p+2", "-0x1.0000000000000p+3"),
     ("0x1.8514c2702b00fp+2", "-0x1.fc1bf3d0cc5ecp+2")),
    ("0x1.56e1fc2f8f359p-997", ("-0x1.fffffffffffffp+1023", "0x1.0000000000000p+1"),
     ("-0x1.fffffffffffffp+1023", "-0x1.56e1fbef8f358p+27")),
]


def all_operators(request):
    ops = [subdifferential_operator(request.getfixturevalue(n)) for n in ALL_FUNCTIONS]
    ops.append(request.getfixturevalue("rotator"))
    return ops


# ---------------------------------------------------------------- energy


def test_energy_values(energy2):
    x = np.array([3.0, 4.0])
    assert energy2.value(x) == 12.5
    assert energy2.conjugate(x) == 12.5
    assert np.allclose(energy2.gradient(x), x)
    assert np.allclose(energy2.prox(1.0, x), x / 2.0)
    assert np.allclose(energy2.prox(3.0, x), x / 4.0)


def test_energy_is_self_conjugate(energy2, rng):
    star = conjugate_function(energy2)
    for _ in range(10):
        z = rng.normal(size=2)
        assert abs(star.value(z) - energy2.value(z)) <= 1e-12
        assert np.allclose(star.prox(2.0, z), energy2.prox(2.0, z))


def test_make_energy_rejects_dim_zero():
    with pytest.raises(ValueError) as excinfo:
        catalog.make_energy(0)
    assert str(excinfo.value) == "energy requires dim >= 1, got 0"


# -------------------------------------------------------------- subspace


def test_subspace_value_and_prox(subspace_e1):
    assert subspace_e1.value([2.0, 0.0]) == 0.0
    assert subspace_e1.value([2.0, 1.0]) == INF
    assert np.allclose(subspace_e1.prox(0.7, [3.0, 5.0]), [3.0, 0.0])


def test_subspace_conjugate_is_orthogonal_indicator(subspace_e1):
    assert subspace_e1.conjugate([0.0, 4.0]) == 0.0
    assert subspace_e1.conjugate([1e-3, 4.0]) == INF


@pytest.mark.parametrize(
    "spec",
    [
        "subspace:dim=2:basis=1,1",
        "subspace:dim=3:basis=1,0,0;0,1,1",
        "subspace:dim=4:basis=1,2,0,1;0,1,-1,3",
    ],
)
def test_conjugate_subspace_gap_is_its_fitzpatrick_gap_on_stacks(spec, rng):
    # the conjugate keeps the mark, so a report reads its Fitzpatrick gap off
    # row 0 of a 3-row gap stack; that row decides membership as the one-point
    # Fitzpatrick gap does, on points 0.5 to 2 tolerances off U or U-perp
    f = parse_spec(spec)
    conj = conjugate_function(f)
    assert conj.fitzpatrick_gap.equals_gap and conj.gap_kernel.equals_gap
    decided = set()
    for _ in range(2000):
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(4, 1))
        x, x_star, a, a_star = rng.normal(size=(4, f.dim)) * scales
        for v in (x, x_star):
            p = f.prox_kernel(1.0, v)
            near, off = (p, v - p) if rng.random() < 0.5 else (v - p, p)
            scale = MEMBERSHIP_TOL * (1.0 + np.linalg.norm(near)) * rng.uniform(0.5, 2.0)
            v[:] = near + scale * off / np.linalg.norm(off)
        row0 = conj.gap_kernel(np.array((x, a, x)), np.array((x_star, x_star, a_star)))[0]
        one = conj.fitzpatrick_gap(x, x_star)
        assert row0.tobytes() == one.tobytes(), (x, x_star)
        decided.add(float(one))
    assert decided == {0.0, INF}


def test_subspace_accepts_unnormalized_spanning_set():
    f = catalog.make_subspace_indicator([[3.0, 4.0]])
    u = np.array([0.6, 0.8])
    z = np.array([2.0, 1.0])
    proj = np.dot(z, u) * u
    assert np.allclose(f.prox(1.0, z), proj, atol=1e-12)


def test_orthonormal_basis_mgs(rng):
    vs = rng.normal(size=(3, 5))
    q = orthonormal_basis(vs)
    assert np.allclose(q @ q.T, np.eye(3), atol=1e-12)


def test_orthonormal_basis_rank_deficient():
    with pytest.raises(ValueError, match="rank-deficient at vector 2"):
        orthonormal_basis([[1.0, 0.0], [2.0, 0.0]])


@pytest.mark.parametrize(
    "vectors, message",
    [
        ([], "basis must contain at least one vector"),
        ([[1, 0], [1, 0, 0]], "basis vector 2 has dimension 3, expected 2"),
    ],
)
def test_orthonormal_basis_shape_errors(vectors, message):
    with pytest.raises(ValueError) as excinfo:
        orthonormal_basis(vectors)
    assert str(excinfo.value) == message


# ------------------------------------------------------------------ burg


def test_burg_values(burg):
    x = np.array([2.0])
    assert abs(burg.value(x) - (-math.log(2.0))) <= 1e-15
    assert burg.value([-1.0]) == INF
    assert burg.value([0.0]) == INF
    assert abs(burg.conjugate([-1.0]) - (-1.0)) <= 1e-15
    assert burg.conjugate([0.5]) == INF
    assert np.allclose(burg.gradient(x), [-0.5])


def test_burg_prox_first_order_condition(burg, rng):
    # p minimizes 0.5(p-z)^2 - gamma ln p, so p^2 - z p - gamma = 0
    for _ in range(25):
        z = rng.normal() * 10.0
        gamma = math.exp(rng.uniform(-3, 3))
        p = float(burg.prox(gamma, [z])[0])
        assert p > 0.0
        assert abs(p * p - z * p - gamma) <= 1e-10 * (1.0 + p * p)


def test_burg_prox_stable_for_large_negative_input(burg):
    # naive quadratic root cancels catastrophically here
    p = float(burg.prox(1.0, [-1e12])[0])
    assert p > 0.0
    assert abs(p - 1e-12) <= 1e-18


HUGE = [1e300, -1e300, np.finfo(float).max, -np.finfo(float).max]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", [1e-8, 1.0])
@pytest.mark.parametrize("z", HUGE)
def test_burg_proxes_finite_where_z_squared_overflows(burg, z, gamma):
    # prox is the positive root of p^2 - z p - gamma, about z for z >> 0
    # and gamma/|z| for z << 0; the conjugate prox mirrors it, negative
    p = float(burg.prox(gamma, [z])[0])
    q = float(burg.conjugate_prox(gamma, [z])[0])
    assert math.isfinite(p) and p > 0.0
    assert math.isfinite(q) and q < 0.0
    near, far = (p, q) if z > 0.0 else (q, p)
    assert near == z
    if abs(gamma / z) >= np.finfo(float).tiny:
        assert far == pytest.approx(-gamma / z, rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_burg_proxes_finite_where_four_gamma_overflows(burg):
    # 4 * gamma overflows from about 4.5e307; the roots are about
    # +-sqrt(gamma) = +-1e154
    assert burg.prox(1e308, [1.0])[0] == pytest.approx(1e154, rel=1e-15)
    assert burg.conjugate_prox(1e308, [-1.0])[0] == pytest.approx(-1e154, rel=1e-15)


@pytest.mark.parametrize("z", [-1e150, -1.0, 0.0, 1.0, 1e150])
def test_burg_proxes_continuous_where_the_large_gamma_form_starts(burg, z):
    # the scaled form takes over at gamma = 1e307
    below = np.nextafter(1e307, 0.0)
    for prox in (burg.prox, burg.conjugate_prox):
        assert prox(below, [z])[0] == pytest.approx(prox(1e307, [z])[0], rel=1e-15)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_burg_proxes_continuous_where_the_scaled_form_starts(burg, sign):
    # the scaled form starts at |z| = 1e154, below which z * z stays finite
    start = sign * 1e154
    below = sign * np.nextafter(1e154, 0.0)
    for prox in (burg.prox, burg.conjugate_prox):
        for gamma in (1e-8, 1.0, 1e8):
            assert prox(gamma, [below])[0] == pytest.approx(prox(gamma, [start])[0], rel=1e-15)


# --------------------------------------------------------------- shannon


def test_shannon_values(shannon):
    x = np.array([2.0])
    assert abs(shannon.value(x) - (2.0 * math.log(2.0) - 2.0)) <= 1e-15
    assert shannon.value([0.0]) == 0.0
    assert shannon.value([-0.5]) == INF
    assert abs(shannon.conjugate([1.5]) - math.exp(1.5)) <= 1e-12
    assert np.allclose(shannon.gradient(x), [math.log(2.0)])


def test_shannon_conjugate_overflow_is_inf(shannon):
    assert shannon.conjugate([800.0]) == INF


def test_shannon_prox_first_order_condition(shannon, rng):
    # p - z + gamma ln p = 0
    for _ in range(25):
        z = rng.normal() * 5.0
        gamma = math.exp(rng.uniform(-3, 3))
        p = float(shannon.prox(gamma, [z])[0])
        assert p > 0.0
        assert abs(p - z + gamma * math.log(p)) <= 1e-9 * (1.0 + abs(z))


def test_shannon_prox_huge_input_no_overflow(shannon):
    p = float(shannon.prox(1e-6, [3.0])[0])
    assert math.isfinite(p)
    assert abs(p - 3.0) < 0.1  # prox -> identity as gamma -> 0


TINY_GAMMAS = [1e-300, 1e-200, 1e-100, 1e-20, 1e-10, 1e-9]
BIG_Z = [1.0, 1e100, 1e200, 1e290, 1e299, 1e300, np.finfo(float).max]


# z/gamma overflows on most of these rows, where the root of p + gamma ln p = z
# rounds to z; on the others the Lambert W form keeps its bits
@pytest.mark.filterwarnings("error")
def test_shannon_prox_where_z_over_gamma_overflows(shannon):
    gamma, z = np.array([(g, s) for g in TINY_GAMMAS for s in BIG_Z]).T
    stack = shannon.prox_kernel(gamma[:, None], z[:, None])[:, 0]
    for g, s, p in zip(gamma.tolist(), z.tolist(), stack.tolist()):
        assert shannon.prox(g, [s])[0] == p
        assert math.isfinite(p)
        with mpmath.workdps(50):
            root = mpmath.findroot(lambda q: q + g * mpmath.log(q) - s, s)
            assert abs(p - root) <= math.ulp(p), (g, s)


@pytest.mark.parametrize(
    "name, point, formula",
    [("burg", 0.0, lambda s: -1.0 / s), ("shannon", -1.0, math.log)],
)
def test_gradient_witness_names_its_point_as_a_float(name, point, formula):
    f = parse_spec(name)
    with pytest.raises(ValueError) as excinfo:
        f.gradient([point])
    assert str(excinfo.value) == f"gradient of {name} is undefined at {point!r}"
    for s in (1e-300, 0.3, 2.0, 7.5e12):
        assert f.gradient([s]).tolist() == [formula(s)]


# --------------------------------------------------------------- rotator


def test_rotator_resolvent(rotator):
    a = rotator.resolvent(1.0, np.array([2.0, 0.0]))
    assert np.allclose(a, [1.0, -1.0])


def test_rotator_inverse_resolvent(rotator):
    inv = rotator.inverse()
    a = inv.resolvent(1.0, np.array([2.0, 0.0]))
    assert np.allclose(a, [1.0, 1.0])
    # inverting twice restores the original action
    back = inv.inverse()
    z = np.array([0.3, -1.2])
    assert np.allclose(back.resolvent(0.7, z), rotator.resolvent(0.7, z), atol=1e-12)


def test_rotator_graph(rotator):
    x = np.array([1.0, 2.0])
    assert rotator.graph_contains(x, np.array([-x[1], x[0]]))
    assert not rotator.graph_contains(x, np.array([-x[1], x[0]]) + 0.1)


# -------------------------------------------------- shared operator laws


def test_resolvents_are_firmly_nonexpansive(request, rng):
    for op in all_operators(request):
        for _ in range(20):
            z1 = rng.normal(size=op.dim) * 3.0
            z2 = rng.normal(size=op.dim) * 3.0
            for gamma in (0.1, 1.0, 10.0):
                a1 = op.resolvent(gamma, z1)
                a2 = op.resolvent(gamma, z2)
                d = a1 - a2
                assert np.dot(d, d) <= np.dot(d, z1 - z2) + 1e-12


def test_resolvent_output_is_graph_point(request, rng):
    for op in all_operators(request):
        for gamma in (0.01, 1.0, 100.0):
            z = rng.normal(size=op.dim) * 5.0
            a = op.resolvent(gamma, z)
            a_star = (z - a) / gamma
            assert op.graph_contains(a, a_star)


def test_subdifferential_graph_examples(burg):
    op = subdifferential_operator(burg)
    assert op.graph_contains([2.0], [-0.5])
    assert not op.graph_contains([2.0], [1.0])
    assert not op.graph_contains([-2.0], [-0.5])


def test_moreau_decomposition(request, rng):
    # prox_{gamma f}(z) + gamma prox_{f*/gamma}(z/gamma) = z
    for name in ALL_FUNCTIONS:
        f = request.getfixturevalue(name)
        star = conjugate_function(f)
        for _ in range(10):
            z = rng.normal(size=f.dim) * 4.0
            for gamma in (0.5, 1.0, 2.0):
                lhs = f.prox(gamma, z) + gamma * star.prox(1.0 / gamma, z / gamma)
                assert np.allclose(lhs, z, atol=1e-9)


def test_fenchel_young_inequality(request, rng):
    from conftest import draw_domain_point, draw_dual_point

    for name in ALL_FUNCTIONS:
        f = request.getfixturevalue(name)
        for _ in range(25):
            x = draw_domain_point(f, rng)
            x_star = draw_dual_point(f, rng)
            residual = f.value(x) + f.conjugate(x_star) - np.dot(x, x_star)
            assert residual >= -1e-12 * (1.0 + abs(residual))


# ------------------------------------------------------------ parse_spec


def test_parse_spec_round_trips():
    f = parse_spec("energy:dim=3")
    assert f.name == "energy" and f.dim == 3

    g = parse_spec("subspace:dim=2:basis=1,0")
    assert g.dim == 2
    assert g.value([5.0, 0.0]) == 0.0

    h = parse_spec("subspace:dim=3:basis=1,0,0;0,1,0")
    assert h.value([1.0, 2.0, 0.0]) == 0.0
    assert h.value([0.0, 0.0, 1.0]) == INF

    assert parse_spec("burg").name == "burg"
    assert parse_spec("shannon").name == "shannon"
    assert parse_spec("rotator").name == "rotator"


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ("frobulator", "unknown catalog entry 'frobulator'"),
        ("energy", "requires dim=N"),
        ("energy:dim=zero", "bad dimension 'zero'"),
        ("energy:dim=2:color=red", "unexpected key 'color'"),
        ("energy:dim=2:dim=3", "duplicate key"),
        ("subspace:dim=2", "requires basis"),
        ("subspace:dim=2:basis=1,oops", "bad vector"),
        ("subspace:dim=2:basis=1,0,0", "has dimension 3, expected 2"),
        ("burg:dim=1", "unexpected key 'dim'"),
        ("", "empty catalog spec"),
    ],
)
def test_parse_spec_errors_name_the_token(spec, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_spec(spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        ("energy:dim", "expected key=value in spec 'energy:dim', got 'dim'"),
        # the key=value error comes before the name is looked up
        ("frobulator:x", "expected key=value in spec 'frobulator:x', got 'x'"),
        ("energy:dim=0", "bad dimension '0' in spec 'energy:dim=0': must be >= 1"),
        ("subspace:basis=1,0", "spec 'subspace:basis=1,0' requires dim=..."),
        (
            "subspace:dim=2:basis=1,0:x=1",
            "unexpected key 'x' in spec 'subspace:dim=2:basis=1,0:x=1'",
        ),
        ("subspace:dim=2:basis=;", "spec 'subspace:dim=2:basis=;' has an empty basis"),
        (
            "subspace:dim=2:basis=1,0;;0,1",
            "empty basis vector in spec 'subspace:dim=2:basis=1,0;;0,1'",
        ),
        ("subspace:dim=2:basis=1,0;", "empty basis vector in spec 'subspace:dim=2:basis=1,0;'"),
        (
            "subspace:dim=2:basis=1,inf",
            "basis vector '1.0,inf' in spec 'subspace:dim=2:basis=1,inf' has non-finite entries",
        ),
        ("rotator:a=b", "unexpected key 'a' in spec 'rotator:a=b'"),
    ],
)
def test_parse_spec_error_messages(spec, message):
    with pytest.raises(ValueError) as excinfo:
        parse_spec(spec)
    assert str(excinfo.value) == message


def test_parse_spec_calls_the_factory_of_the_module_at_call_time(monkeypatch):
    # a tracer that patches catalog.make_* must see every entry parse_spec builds
    built = []
    monkeypatch.setattr(catalog, "make_burg", lambda: built.append("burg") or "patched")
    assert parse_spec("burg") == "patched"
    assert built == ["burg"]


def test_catalog_names():
    assert CATALOG_NAMES == ("energy", "subspace", "burg", "shannon", "rotator")


# ------------------------------------------------------------- inverses


def test_generic_inverse_matches_conjugate_prox(burg, rng):
    # J_{mu (df)^{-1}}(w) must agree with the closed-form prox of f*.
    op = subdifferential_operator(burg)
    inv = op.inverse()
    star = conjugate_function(burg)
    for _ in range(20):
        w = np.array([-math.exp(rng.uniform(-2.0, 2.0))])
        for mu in (0.2, 1.0, 5.0):
            assert np.allclose(inv.resolvent(mu, w), star.prox(mu, w), atol=1e-10)


def test_generic_inverse_fallback_identity(burg, rng):
    # strip the factory so the resolvent-identity fallback is exercised
    import dataclasses

    op = subdifferential_operator(burg)
    bare = dataclasses.replace(op, inverse_factory=None)
    closed = op.inverse()
    generic = bare.inverse()
    assert generic.name == f"inverse({op.name})"
    for _ in range(20):
        w = np.array([-math.exp(rng.uniform(-2.0, 2.0))])
        for mu in (0.2, 1.0, 5.0):
            assert np.allclose(
                generic.resolvent(mu, w), closed.resolvent(mu, w), atol=1e-10
            )
    # graph and domain bookkeeping are swapped, inverse() undoes it
    assert generic.dom.contains(np.array([-0.5])) and generic.ran.contains(np.array([2.0]))
    assert generic.inverse() is bare


def test_inverse_operator_helper(energy2, rng):
    op = subdifferential_operator(energy2)
    inv = op.inverse()
    z = rng.normal(size=2)
    # energy has gradient = identity, so the inverse resolvent matches
    assert np.allclose(inv.resolvent(1.0, z), op.resolvent(1.0, z))
    assert inv.dom.contains(z) and inv.ran.contains(z)


def test_inverse_swaps_domain_and_range(burg):
    op = subdifferential_operator(burg)
    inv = op.inverse()
    assert op.dom.contains(np.array([2.0])) and not op.dom.contains(np.array([-2.0]))
    assert inv.ran.contains(np.array([2.0])) and not inv.ran.contains(np.array([-2.0]))
    assert inv.dom.contains(np.array([-0.5])) and not inv.dom.contains(np.array([0.5]))


def test_inverse_is_built_once(request):
    import dataclasses

    ops = all_operators(request)
    ops += [dataclasses.replace(op, inverse_factory=None) for op in list(ops)]
    for op in ops:
        inv = op.inverse()
        assert op.inverse() is inv
        assert inv.inverse() is inv.inverse()


def test_derived_kernels_keep_the_bits_of_the_hand_written_forms(burg, rotator):
    # Burg's conjugate and conjugate prox come from f(-y) - 1 and
    # -prox(sigma, -t), the rotator's inverse resolvent from its resolvent
    # at gamma = -mu; negation is exact, so not one bit may move
    h = float.fromhex
    for y, want in BURG_CONJUGATE_PINS:
        assert burg.conjugate([h(y)]).hex() == want
    for sigma, t, want in BURG_CONJUGATE_PROX_PINS:
        assert float(burg.conjugate_prox(h(sigma), [h(t)])[0]).hex() == want
    inverse = rotator.inverse()
    for mu, w, want in ROTATOR_INVERSE_RESOLVENT_PINS:
        got = inverse.resolvent(h(mu), [h(c) for c in w])
        assert tuple(float(c).hex() for c in got) == want


# ------------------------------------------------------ derived public maps

SPECS = ["energy:dim=2", "subspace:dim=3:basis=1,0,0;0,1,1", "burg", "shannon", "rotator"]


def _public_maps(spec):
    """(record, public map field, the argument its messages name) for a
    parsed entry, its conjugate and its inverse."""
    entry = parse_spec(spec)
    op = catalog.as_operator(entry)
    maps = [(op, "resolvent", "z"), (op.inverse(), "resolvent", "w")]
    if op is not entry:
        star = conjugate_function(entry)
        for record, names in ((entry, ("x", "x_star", "z", "w")), (star, ("x_star", "x", "w", "z"))):
            fields = ("value", "conjugate", "prox", "conjugate_prox")
            maps += [(record, field, name) for field, name in zip(fields, names)]
    return maps


@pytest.mark.parametrize("spec", SPECS)
def test_public_maps_are_their_kernels_behind_as_vector(spec, rng):
    for record, field, name in _public_maps(spec):
        public = getattr(record, field)
        kernel = getattr(record, f"{field}_kernel")
        # value maps take a point; prox and resolvent maps a gamma and a point
        args = () if field in ("value", "conjugate") else (float(10.0 ** rng.uniform(-3.0, 3.0)),)
        for _ in range(20):
            p = rng.normal(size=record.dim) * 10.0 ** rng.uniform(-3.0, 3.0)
            got = public(*args, p.tolist())
            want = kernel(*args, p)
            if not args:
                want = float(want)
            assert type(got) is type(want), (record.name, field)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (record.name, field, p)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
                public(*args, [bad] + [0.5] * (record.dim - 1))
        if args:
            # gamma is checked before the point, here a non-finite one
            for bad in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="^gamma must be positive and finite"):
                    public(bad, [math.nan] * record.dim)


@pytest.mark.parametrize("spec", SPECS[:-1])
def test_a_replaced_prox_reaches_every_public_path(spec):
    import dataclasses

    def p(gamma, z):
        return z

    f = dataclasses.replace(parse_spec(spec), prox=p)
    assert f.prox is p
    assert catalog.as_operator(f).resolvent is p
    assert conjugate_function(f).conjugate_prox is p


# gamma * gamma or gamma * z overflows here; the rows are divided through by
# gamma, and rows that do not overflow keep the bits of the plain form
@pytest.mark.filterwarnings("error")
def test_rotator_resolvent_finite_where_gamma_overflows(rotator):
    a = rotator.resolvent(1e200, [1.79e308, 1.0])
    assert np.isfinite(a).all()
    assert a[0] == pytest.approx(1.79e-92, rel=1e-15) and a[1] == pytest.approx(-1.79e108, rel=1e-15)
    c = bounds.carlier_bound(rotator, 1e200, [1e108, 1.0], [1.0, 1.0])
    assert math.isfinite(c) and c == pytest.approx(1e16, rel=1e-15)
    gamma = np.array([[1e200], [0.5], [-3.0]])
    z = np.array([[1.79e308, 1.0], [1.0, 2.0], [4.0, -1.0]])
    rows = rotator.resolvent_kernel(gamma, z)
    assert rows[0].tolist() == a.tolist()
    assert rows[1].tolist() == rotator.resolvent(0.5, z[1]).tolist()
    # the public resolvent takes gamma > 0; the kernel at -3 is the inverse's at 3
    assert rows[2].tolist() == rotator.inverse().resolvent(3.0, z[2]).tolist()


# z1 + gamma z2 and z1 / gamma both overflow near the float limit; the two
# forms run again at z/4 and the result is scaled back by 4
@pytest.mark.filterwarnings("error")
def test_rotator_resolvent_finite_where_both_forms_overflow(rotator):
    z, gamma = [1.7e308, 1.7e308], 0.9
    with mpmath.workdps(50):
        g, z1, z2 = (mpmath.mpf(v) for v in (gamma, *z))
        ref = [float(c / (1 + g * g)) for c in (z1 + g * z2, z2 - g * z1)]
    # the small coordinate cancels in z2 - gamma z1, as at finite points
    assert ref == [1.7845303867403314e308, 9.392265193370163e306]
    assert rotator.resolvent(gamma, z).tolist() == pytest.approx(ref, rel=1e-15)
    # the inverse's resolvent is the turn the other way: the coordinates swap
    assert rotator.inverse().resolvent(gamma, z).tolist() == pytest.approx(ref[::-1], rel=1e-15)
