import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from conftest import bits, graph_point

from proxgap import bounds, catalog
from proxgap.analysis import gamma_sweep
from proxgap.bounds import (
    BoundReport,
    bound_report,
    bregman_distance,
    carlier_bound,
    chain_links,
    chain_violation,
    dual_carlier_check,
    fitzpatrick_bound,
    gap,
    minty_decompose,
    pair_inequality_check,
)
from proxgap.catalog import subdifferential_operator
from proxgap.core import INF, within_membership
from proxgap.serialize import BOUND_CSV_HEADER, report_to_csv_row

X1 = np.array([1.0, 0.0])
XSTAR1 = np.array([0.0, 1.0])


# ------------------------------------------------------------------- gap


def test_gap_energy(energy2):
    assert gap(energy2, X1, X1) == 0.0
    g = gap(energy2, X1, XSTAR1)
    assert abs(g - 1.0) <= 1e-15
    # cross-check against the half-squared-distance form
    assert abs(g - 0.5 * np.sum((X1 - XSTAR1) ** 2)) <= 1e-15


def test_gap_off_domain_is_inf(burg):
    assert gap(burg, [-1.0], [-1.0]) == INF
    assert gap(burg, [1.0], [1.0]) == INF  # conjugate side this time


# --------------------------------------------------------------- carlier


def test_carlier_overflow_is_inf_without_a_warning():
    # carlier_bound's own docstring example: ||x - a||^2 / gamma is past the float range
    A = catalog.as_operator(catalog.parse_spec("subspace:dim=2:basis=1,1"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert carlier_bound(A, 1e-320, [1, 2], [0.5, -1]) == INF
        # and on a stack, row by row
        got = carlier_bound(A, [1e-320, 1.0], [[1, 2], [1, 2]], [[0.5, -1], [0.5, -1]])
        assert got.tolist() == [INF, carlier_bound(A, 1.0, [1, 2], [0.5, -1])]


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 64])
def test_one_point_carlier_has_the_bits_of_a_one_row_stack(dim):
    # the one-point branch squares d = x - a with ndarray.dot, the stack
    # branch with vecdot; a numpy build where the two differ fails here
    rng = np.random.default_rng(dim)
    for exponent in np.linspace(-160.0, 160.0, 161).repeat(3):
        x, a = rng.normal(size=(2, dim)) * 10.0 ** (exponent + rng.uniform(-1.0, 1.0, (2, dim)))
        gamma = 10.0 ** rng.uniform(0.0, 1.0)  # gamma >= 1: only the square can overflow
        norm = math.hypot(*(x - a).tolist())
        if 1.3e154 < norm < 1.4e154:  # where the square rounds to the float limit
            continue
        overflows = norm > 1.4e154
        with warnings.catch_warnings():
            warnings.simplefilter("ignore" if overflows else "error")
            want = bounds._carlier(x[None], a[None], np.array([[gamma]]))
        if overflows:
            with pytest.warns(RuntimeWarning, match="^overflow encountered in dot$"):
                got = bounds._carlier(x, a, gamma)
            assert got == INF
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = bounds._carlier(x, a, gamma)
            assert got < INF
        assert type(got) is float and got == want[0], (dim, exponent)


def test_carlier_energy_closed_form(energy2):
    A = subdifferential_operator(energy2)
    assert abs(carlier_bound(A, 1.0, X1, XSTAR1) - 0.5) <= 1e-15
    for gamma in (0.25, 1.0, 4.0):
        want = gamma / (1.0 + gamma) ** 2 * 2.0  # ||x - x*||^2 = 2
        got = carlier_bound(A, gamma, X1, XSTAR1)
        assert abs(got - want) <= 1e-12 * (1.0 + want)


def test_carlier_subspace_worked_example(subspace_e1):
    A = subdifferential_operator(subspace_e1)
    got = carlier_bound(A, 2.0, [1.0, 3.0], [5.0, 7.0])
    # (1/2)*3^2 + 2*5^2 = 4.5 + 50
    assert abs(got - 54.5) <= 1e-12 * 54.5


def test_carlier_zero_iff_graph_point(request, rng):
    for name in ("energy2", "subspace_e1", "burg", "shannon"):
        A = subdifferential_operator(request.getfixturevalue(name))
        x, x_star = graph_point(A, rng)
        assert carlier_bound(A, 1.0, x, x_star) <= 1e-18
        off = carlier_bound(A, 1.0, x, x_star + 0.5)
        assert off > 1e-6


def test_carlier_rejects_bad_gamma(energy2):
    A = subdifferential_operator(energy2)
    with pytest.raises(ValueError):
        carlier_bound(A, 0.0, X1, XSTAR1)
    with pytest.raises(ValueError):
        carlier_bound(A, -2.0, X1, XSTAR1)


def test_carlier_rejects_non_finite_gamma(energy2):
    A = subdifferential_operator(energy2)
    with pytest.raises(ValueError, match="gamma must be positive and finite, got inf"):
        carlier_bound(A, math.inf, X1, XSTAR1)
    with pytest.raises(ValueError, match="gamma must be positive and finite, got nan"):
        carlier_bound(A, math.nan, X1, XSTAR1)


# ----------------------------------------------------------------- minty


def test_minty_energy_example(energy2):
    A = subdifferential_operator(energy2)
    pair = minty_decompose(A, 1.0, X1, XSTAR1)
    assert np.allclose(pair.a, [0.5, 0.5])
    assert np.allclose(pair.a_star, [0.5, 0.5])


def test_minty_identities(request, rng):
    for name in ("energy2", "burg", "shannon"):
        f = request.getfixturevalue(name)
        A = subdifferential_operator(f)
        for _ in range(20):
            x = rng.normal(size=f.dim) * 2.0
            x_star = rng.normal(size=f.dim) * 2.0
            for gamma in (0.1, 1.0, 10.0):
                pair = minty_decompose(A, gamma, x, x_star)
                a, a_star = pair.a, pair.a_star

                # graph membership and exact reassembly
                assert A.graph_contains(a, a_star)
                assert np.allclose(a + gamma * a_star, x + gamma * x_star, atol=1e-12)

                dsq = float(np.sum((x - a) ** 2))
                # squared distance in the product space
                m6 = float(np.sum((x - a) ** 2) + np.sum((x_star - a_star) ** 2))
                want6 = (1.0 + gamma**-2) * dsq
                assert abs(m6 - want6) <= 1e-10 * (1.0 + abs(m6) + abs(want6))

                m8 = float(np.sum(((x - a) - (x_star - a_star)) ** 2))
                want8 = (1.0 + 1.0 / gamma) ** 2 * dsq
                assert abs(m8 - want8) <= 1e-10 * (1.0 + abs(m8) + abs(want8))

                key = float(np.dot(a - x, x_star - a_star))
                want_key = dsq / gamma
                assert abs(key - want_key) <= 1e-10 * (1.0 + abs(key) + abs(want_key))
                assert abs(want_key - carlier_bound(A, gamma, x, x_star)) <= 1e-12 * (
                    1.0 + want_key
                )


def test_minty_fixed_point_on_graph(burg):
    A = subdifferential_operator(burg)
    pair = minty_decompose(A, 3.0, [2.0], [-0.5])
    assert np.allclose(pair.a, [2.0], atol=1e-12)
    assert np.allclose(pair.a_star, [-0.5], atol=1e-12)


# --------------------------------------------------------------- duality


def test_dual_carlier_agreement(request, rng):
    for name in ("energy2", "subspace_e1", "burg", "shannon"):
        f = request.getfixturevalue(name)
        A = subdifferential_operator(f)
        for _ in range(20):
            x = rng.normal(size=f.dim) * 3.0
            x_star = rng.normal(size=f.dim) * 3.0
            for gamma in (0.01, 0.5, 2.0, 100.0):
                lhs, rhs = dual_carlier_check(A, gamma, x, x_star)
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_dual_carlier_rotator(rotator, rng):
    for _ in range(20):
        x = rng.normal(size=2) * 3.0
        x_star = rng.normal(size=2) * 3.0
        lhs, rhs = dual_carlier_check(rotator, 0.5, x, x_star)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_dual_carlier_rejects_a_gamma_whose_inverse_overflows(energy2):
    A = subdifferential_operator(energy2)
    with pytest.raises(ValueError, match="1/gamma must be positive and finite, got inf"):
        dual_carlier_check(A, 1e-320, X1, XSTAR1)


def test_dual_carlier_graph_point(energy2):
    A = subdifferential_operator(energy2)
    lhs, rhs = dual_carlier_check(A, 2.0, X1, X1)
    assert lhs <= 1e-18 and rhs <= 1e-18


HUGE = [1e308, 0.0]
TWO = [[1.0, 0.0], HUGE]


# every caller of bounds._minty, on one point and on a stack whose second row
# overflows; verify's suites draw normal points at gamma <= 100 and so never
# form a non-finite Minty point
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda f, A: dual_carlier_check(A, 1.0, HUGE, HUGE), id="duality-left"),
        pytest.param(lambda f, A: bound_report(f, 1.0, HUGE, HUGE), id="bound_report"),
        pytest.param(lambda f, A: carlier_bound(A, 1.0, HUGE, HUGE), id="carlier_bound"),
        pytest.param(lambda f, A: minty_decompose(A, 1.0, HUGE, HUGE), id="minty_decompose"),
        pytest.param(lambda f, A: dual_carlier_check(A, 1.0, TWO, TWO), id="stacked-duality-left"),
        pytest.param(lambda f, A: bound_report(f, [1.0, 2.0], TWO, TWO), id="stacked-bound_report"),
        pytest.param(lambda f, A: carlier_bound(A, 1.0, TWO, TWO), id="stacked-carlier_bound"),
        pytest.param(lambda f, A: minty_decompose(A, 1.0, TWO, TWO), id="stacked-minty_decompose"),
        # x + gamma x* = 1e300 is finite, x* + x / gamma is not
        pytest.param(
            lambda f, A: dual_carlier_check(A, 1e-10, [1e300, 0.0], [0.0, 0.0]),
            id="duality-right",
        ),
        pytest.param(
            lambda f, A: dual_carlier_check(A, 1e-10, [[1.0, 0.0], [1e300, 0.0]], np.zeros((2, 2))),
            id="stacked-duality-right",
        ),
        # z overflows at gamma = 3162.2776601683795 of the default grid
        pytest.param(lambda f, A: gamma_sweep(A, [1.0, 0.0], [1e305, 0.0]), id="gamma_sweep"),
    ],
)
def test_overflowing_minty_point_has_one_message(energy2, call):
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="^z has non-finite entries"):
            call(energy2, subdifferential_operator(energy2))


# ---------------------------------------------------------------- stacks

NAN, STACK, FOUR = math.nan, np.zeros((3, 2)), np.zeros((4, 2))


def _stacked_calls(f, gamma, x, x_star):
    A = subdifferential_operator(f)
    yield lambda: bound_report(f, gamma, x, x_star)
    yield lambda: carlier_bound(A, gamma, x, x_star)
    yield lambda: minty_decompose(A, gamma, x, x_star)
    yield lambda: dual_carlier_check(A, gamma, x, x_star)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "gamma, x, x_star, message",
    [
        (1.0, np.zeros((3, 3)), STACK, "x has shape (3, 3), expected (3, 2) (first bad row 0)"),
        (1.0, STACK, STACK[:2], "x_star has shape (2, 2), expected (3, 2) (first bad row 2)"),
        (1.0, STACK, FOUR, "x_star has shape (4, 2), expected (3, 2) (first bad row 3)"),
        (1.0, STACK, [0.0, 0.0], "x_star has shape (2,), expected (3, 2) (first bad row 0)"),
        ([1.0, 1.0], STACK, STACK, "gamma has shape (2,), expected (3,) (first bad row 2)"),
        (np.ones((3, 1)), STACK, STACK, "gamma has shape (3, 1), expected (3,) (first bad row 0)"),
        (1.0, [[0, 0], [0, NAN], [INF, 0]], STACK, "x row 1 must be finite, got [0.0, nan]"),
        (1.0, STACK, [[0, 0], [0, 0], [-INF, 0]], "x_star row 2 must be finite, got [-inf, 0.0]"),
        ([1.0, 0.0, -1.0], STACK, STACK, "gamma row 1 must be positive and finite, got 0.0"),
        ([1.0, 1.0, -1.0], STACK, STACK, "gamma row 2 must be positive and finite, got -1.0"),
        ([INF, 1.0, 1.0], STACK, STACK, "gamma row 0 must be positive and finite, got inf"),
        ([1.0, NAN, 1.0], STACK, STACK, "gamma row 1 must be positive and finite, got nan"),
        (0.0, STACK, STACK, "gamma must be positive and finite, got 0.0"),
    ],
)
def test_stacked_input_errors_name_their_first_bad_row(energy2, gamma, x, x_star, message):
    for call in _stacked_calls(energy2, gamma, x, x_star):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.filterwarnings("error")
def test_stacked_dual_carlier_names_the_row_whose_inverse_gamma_overflows(energy2):
    # the one-point message, at the first row where 1/gamma is +inf, and no numpy warning
    A = subdifferential_operator(energy2)
    message = r"^1/gamma row 1 must be positive and finite, got inf$"
    with pytest.raises(ValueError, match=message):
        dual_carlier_check(A, [1.0, 1e-320, 1e-320], STACK, STACK)
    with pytest.raises(ValueError, match=message.replace("row 1", "row 0")):
        dual_carlier_check(A, 1e-320, STACK, STACK)
    # the other stacked calls take such a gamma
    for call in list(_stacked_calls(energy2, [1.0, 1e-320, 1.0], STACK, STACK))[:3]:
        call()


# ----------------------------------------------------------- fitzpatrick


def test_fitzpatrick_energy(energy2):
    assert abs(fitzpatrick_bound(energy2, X1, XSTAR1) - 0.5) <= 1e-15


def test_fitzpatrick_subspace(subspace_e1):
    assert fitzpatrick_bound(subspace_e1, [2.0, 0.0], [0.0, 3.0]) == 0.0
    assert fitzpatrick_bound(subspace_e1, [2.0, 1.0], [0.0, 3.0]) == INF


def test_fitzpatrick_rotator_graph_indicator(rotator):
    x = np.array([1.0, 2.0])
    assert fitzpatrick_bound(rotator, x, np.array([-x[1], x[0]])) == 0.0
    assert fitzpatrick_bound(rotator, x, x) == INF


def test_fitzpatrick_absent_returns_none(burg):
    import dataclasses

    A = subdifferential_operator(burg)
    bare = dataclasses.replace(A, fitzpatrick_gap=None)
    assert fitzpatrick_bound(bare, [1.0], [-1.0]) is None


def test_fitzpatrick_between_gap_and_carlier(request, rng):
    from conftest import draw_domain_point, draw_dual_point

    saw_closed_form = set()
    for name in ("energy2", "subspace_e1", "burg", "shannon"):
        f = request.getfixturevalue(name)
        A = subdifferential_operator(f)
        for _ in range(25):
            x = draw_domain_point(f, rng)
            x_star = draw_dual_point(f, rng)
            g = gap(f, x, x_star)
            fz = fitzpatrick_bound(f, x, x_star)
            if fz is None:
                for gamma in (0.1, 1.0, 10.0):
                    c = carlier_bound(A, gamma, x, x_star)
                    assert g >= c - 1e-9 * (1.0 + c)
                continue
            saw_closed_form.add(f.name)
            slack = 1e-9 * (1.0 + (abs(g) if g != INF else 0.0))
            assert g >= fz - slack
            for gamma in (0.1, 1.0, 10.0):
                c = carlier_bound(A, gamma, x, x_star)
                assert fz >= c - 1e-9 * (1.0 + c)
    assert saw_closed_form == {"energy", "subspace"}


# ------------------------------------------------------ pair inequality


def test_pair_inequality_random(energy2, rng):
    for _ in range(50):
        x, x_star, y, y_star = (rng.normal(size=2) for _ in range(4))
        lhs, rhs = pair_inequality_check(energy2, x, x_star, y, y_star)
        assert lhs >= rhs - 1e-9


def test_pair_inequality_equality_case(energy2, rng):
    # with f = energy, swapping the dual slots achieves equality
    x = rng.normal(size=2)
    y = rng.normal(size=2)
    lhs, rhs = pair_inequality_check(energy2, x, y, y, x)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
    A = subdifferential_operator(energy2)
    assert A.graph_contains(x, x) and A.graph_contains(y, y)


def test_pair_inequality_trivial_case(shannon):
    lhs, rhs = pair_inequality_check(shannon, [1.0], [0.5], [1.0], [0.5])
    assert rhs == 0.0
    assert lhs >= 0.0


# --------------------------------------------------------------- bregman


def test_bregman_energy(energy2, rng):
    x = rng.normal(size=2)
    y = rng.normal(size=2)
    d = bregman_distance(energy2, x, y)
    assert abs(d - 0.5 * float(np.sum((x - y) ** 2))) <= 1e-12
    assert bregman_distance(energy2, x, x) == 0.0


def test_bregman_burg_worked_example(burg):
    d = bregman_distance(burg, [2.0], [1.0])
    assert abs(d - (1.0 - math.log(2.0))) <= 1e-15
    # definitional route equals the conjugate route
    g = gap(burg, [2.0], burg.gradient([1.0]))
    assert abs(d - g) <= 1e-12 * (1.0 + abs(d))


def test_bregman_dominates_carlier(burg, rng):
    A = subdifferential_operator(burg)
    for _ in range(20):
        x = np.array([abs(rng.normal()) + 0.1])
        y = np.array([abs(rng.normal()) + 0.1])
        d = bregman_distance(burg, x, y)
        for gamma in (0.1, 1.0, 10.0):
            c = carlier_bound(A, gamma, x, burg.gradient(y))
            assert c <= d + 1e-10 * (1.0 + abs(d))


def test_bregman_off_domain_is_inf(burg):
    assert bregman_distance(burg, [-1.0], [1.0]) == INF


def test_bregman_requires_gradient(subspace_e1):
    with pytest.raises(ValueError, match="no gradient witness"):
        bregman_distance(subspace_e1, [1.0, 0.0], [2.0, 0.0])


# ---------------------------------------------------------- bound_report


def test_bound_report_energy_example(energy2):
    rep = bound_report(energy2, 1.0, X1, XSTAR1)
    assert abs(rep.gap - 1.0) <= 1e-15
    assert abs(rep.fitzpatrick - 0.5) <= 1e-15
    assert abs(rep.carlier - 0.5) <= 1e-15
    assert not rep.gap_zero
    assert not rep.gap_equals_carlier
    assert chain_violation(rep) is None


def test_bound_report_graph_point(burg):
    rep = bound_report(burg, 2.0, [2.0], [-0.5])
    assert rep.gap <= 1e-12
    assert rep.carlier <= 1e-12
    assert rep.gap_zero and rep.gap_equals_carlier
    assert chain_violation(rep) is None


def test_bound_report_infinite_gap_finite_carlier(burg):
    rep = bound_report(burg, 1.0, [-1.0], [-1.0])
    assert rep.gap == INF
    assert math.isfinite(rep.carlier)
    assert chain_violation(rep) is None


# x = (1.5e308, 1.5e308, 0) lies in U = span{(1, 1, 0)}, so P x = x is finite,
# but z Q^T overflows to +inf in the projector and inf * 0 gives NaN: the
# Carlier value is NaN where it is 0 (ROADMAP items 1 and 16)
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="projector overflow")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_bound_report_projects_a_huge_member_of_the_subspace():
    f = catalog.parse_spec("subspace:dim=3:basis=1,1,0")
    rep = bound_report(f, 1.0, [1.5e308, 1.5e308, 0.0], [0.0, 0.0, 0.0])
    assert not math.isnan(rep.carlier)


def _reference_members(f, gamma, x, x_star):
    """``within_membership`` on the gap rows (x, x*), (a, x*) and (x, a*)."""
    x, x_star = np.asarray(x, dtype=float), np.asarray(x_star, dtype=float)
    z = x + gamma * x_star
    a = f.prox(gamma, z)
    points = np.array((x, a, x))
    duals = np.array((x_star, x_star, (z - a) / gamma))
    return within_membership(f.gap_kernel(points, duals), points, duals)


def _straddle(spec, gamma, x, x_star, direction, row=0):
    """x* + t direction at two adjacent floats t where gap row ``row`` is
    just inside and just outside the membership tolerance."""
    f = catalog.parse_spec(spec)
    x_star, direction = np.array(x_star, dtype=float), np.array(direction, dtype=float)
    lo, hi = 0.0, 1.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        inside = _reference_members(f, gamma, x, x_star + mid * direction)[row]
        lo, hi = (mid, hi) if inside else (lo, mid)
    return [(spec, gamma, x, x_star + t * direction) for t in (lo, hi)]


def _membership_cases():
    """(spec, gamma, x, x*): near-graph points, errors of exactly 0 and above
    0 at an overflowed scale (||x|| about 1e200), and errors at the scale."""
    cases = []
    for k in range(-12, -1):
        eps = 10.0**k
        cases += [
            ("energy:dim=2", 0.5, [3.0, -4.0], [3.0 * (1.0 + eps), -4.0]),
            ("energy:dim=64", 2.0, np.full(64, 0.25), np.full(64, 0.25 + eps)),
            ("burg", 2.0, [3.0], [-(1.0 + eps) / 3.0]),
            ("shannon", 0.3, [2.0], [math.log(2.0) + eps]),
            ("subspace:dim=2:basis=1,0", 1.0, [5.0, eps], [0.0, 1.0]),
            ("subspace:dim=2:basis=1,0", 1.0, [5.0, 0.0], [eps, 1.0]),
        ]
    cases += [
        ("energy:dim=2", 1.0, [1e200, 0.0], [1e200, 0.0]),
        ("energy:dim=2", 1.0, [1e200, 0.0], [1e200, 1.0]),
        ("subspace:dim=2:basis=1,0", 1.0, [1e200, 0.0], [0.0, 1.0]),
        ("subspace:dim=2:basis=1,0", 1.0, [1e200, 1e-300], [0.0, 1.0]),
        ("shannon", 1.0, [1e306], [1.0]),
    ]
    cases += _straddle("energy:dim=2", 0.7, [1.0, 0.0], [1.0, 0.0], [1.0, 0.0])
    cases += _straddle("burg", 0.7, [3.0], [-1.0 / 3.0], [-1.0])
    cases += _straddle("shannon", 0.7, [2.0], [math.log(2.0)], [1.0])
    # energy at x = 0 has a = a* = gamma x* / (1 + gamma) and ||x|| = 0: the
    # (a, x*) row decides the sharpness test at gamma 0.5, the (x, a*) row at
    # gamma 2, each at a scale that holds ||a|| or ||a*|| and not ||x||
    cases += _straddle("energy:dim=2", 0.5, [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], row=1)
    cases += _straddle("energy:dim=2", 2.0, [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], row=2)
    return cases


def test_bound_report_flags_equal_within_membership_on_the_three_rows():
    flags = []
    for spec, gamma, x, x_star in _membership_cases():
        f = catalog.parse_spec(spec)
        with np.errstate(over="ignore"):
            rep = bound_report(f, gamma, x, x_star)
            member = _reference_members(f, gamma, x, x_star)
        assert rep.gap_zero is bool(member[0]), (spec, x, x_star)
        assert rep.gap_equals_carlier is bool(member[1] and member[2]), (spec, x, x_star)
        flags.append((rep.gap_zero, rep.gap_equals_carlier))
    # every flag value occurs, so the comparison is not vacuous
    assert {zero for zero, _ in flags} == {True, False}
    assert {sharp for _, sharp in flags} == {True, False}


def test_bound_report_flags_at_the_tolerance():
    # adjacent floats either side of the scale flip the flag they straddle
    f = catalog.make_energy(2)
    inside, outside = _straddle("energy:dim=2", 0.7, [1.0, 0.0], [1.0, 0.0], [1.0, 0.0])
    assert bound_report(f, 0.7, *inside[2:]).gap_zero is True
    assert bound_report(f, 0.7, *outside[2:]).gap_zero is False
    inside, outside = _straddle("energy:dim=2", 0.5, [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], row=1)
    assert bound_report(f, 0.5, *inside[2:]).gap_equals_carlier is True
    assert bound_report(f, 0.5, *outside[2:]).gap_equals_carlier is False
    # an exact member at an overflowed scale; any other error there is not
    with np.errstate(over="ignore"):
        assert bound_report(f, 1.0, [1e200, 0.0], [1e200, 0.0]).gap_zero is True
        assert bound_report(f, 1.0, [1e200, 0.0], [1e200, 1.0]).gap_zero is False


def test_bound_report_and_duality_call_the_public_prox():
    # the route of a fault planted in ``prox``: both bounds must see it
    f = catalog.make_energy(2)
    bad = dataclasses.replace(f, prox=lambda gamma, z: f.prox(gamma, z) * (1.0 + 1e-6))
    x, x_star, gamma = [1.0, -2.0], [0.5, 3.0], 0.7
    assert bound_report(bad, gamma, x, x_star).carlier != bound_report(f, gamma, x, x_star).carlier
    lhs, rhs = dual_carlier_check(subdifferential_operator(f), gamma, x, x_star)
    bad_lhs, bad_rhs = dual_carlier_check(subdifferential_operator(bad), gamma, x, x_star)
    assert bad_lhs != lhs
    assert bad_rhs == rhs


def test_chain_violation_detects_tampering(energy2):
    rep = bound_report(energy2, 1.0, X1, XSTAR1)
    bad = dataclasses.replace(rep, carlier=rep.gap + 1.0)
    assert chain_violation(bad) is not None
    negative = dataclasses.replace(rep, carlier=-1.0)
    assert "negative" in chain_violation(negative)


def test_chain_violation_names_a_fitzpatrick_above_the_gap(energy2):
    rep = dataclasses.replace(bound_report(energy2, 1.0, X1, XSTAR1), gap=1.0, fitzpatrick=2.0)
    assert chain_violation(rep) == "fitzpatrick 2.0 exceeds gap 1.0"


def test_chain_violation_caps_carlier_by_the_smaller_of_gap_and_fitzpatrick():
    # gap < fitz <= gap + slack, so the fitz link holds, yet carlier lies
    # above gap + slack: capping carlier by fitz alone would miss this
    slack = 1e-9 * (1.0 + 1.0000000025)
    rep = BoundReport(
        x=np.zeros(1),
        x_star=np.zeros(1),
        gamma=1.0,
        gap=1.0,
        fitzpatrick=1.0 + 1.5e-9,
        carlier=1.0000000025,
        gap_zero=False,
        gap_equals_carlier=False,
    )
    assert rep.gap < rep.fitzpatrick <= rep.gap + slack
    assert rep.gap + slack < rep.carlier < rep.fitzpatrick + slack
    assert chain_violation(rep) == "carlier 1.0000000025 exceeds 1.0"
    # the row-wise rule behind the verify chain suite flags the same row
    fitz_ok, capped, nonnegative = chain_links(
        np.array([1.0, 1.0]), np.array([1.0 + 1.5e-9, 1.0]), np.array([1.0000000025, 0.5]), 1e-9
    )
    assert fitz_ok.tolist() == [True, True]
    assert capped.tolist() == [False, True]
    assert nonnegative.tolist() == [True, True]


@pytest.mark.parametrize(
    "gap, fitz, flagged",
    [(1.0, 0.5, True), (INF, 1.0, True), (1.0, None, True), (INF, INF, False), (INF, None, False)],
)
def test_chain_violation_infinite_carlier_needs_infinite_bounds(energy2, gap, fitz, flagged):
    import dataclasses

    rep = dataclasses.replace(bound_report(energy2, 1.0, X1, XSTAR1), gap=gap, fitzpatrick=fitz)
    assert (chain_violation(dataclasses.replace(rep, carlier=INF)) is not None) == flagged
    nan = dataclasses.replace(rep, carlier=math.nan)
    assert chain_violation(nan) == "carlier nan is not a number"


def test_stacked_chain_violation_names_its_first_failing_row(energy2):
    # row i of a stack reads "row i: " and the one-point message of that row
    x, x_star = np.ones((3, 2)), np.zeros((3, 2))
    rep = bound_report(energy2, 1.0, x, x_star)
    assert chain_violation(rep) is None
    one = bound_report(energy2, 1.0, x[1], x_star[1])
    assert (rep.gap[1], rep.fitzpatrick[1], rep.carlier[1]) == (one.gap, one.fitzpatrick, one.carlier)
    for field, value in (("carlier", one.gap + 1.0), ("carlier", math.nan), ("fitzpatrick", 2.0)):
        rows = getattr(rep, field).copy()
        rows[1:] = value
        got = chain_violation(dataclasses.replace(rep, **{field: rows}))
        want = chain_violation(dataclasses.replace(one, **{field: value}))
        assert want is not None and got == f"row 1: {want}"


# ------------------------------------------------------------------- csv


def assert_cells_give_back_the_report(rep):
    # each scalar cell is repr(float(v)), empty for None and true/false for a
    # flag, a vector its ;-joined entries; float(cell) gives back every bit
    row = report_to_csv_row(rep)
    assert len(row) == len(BOUND_CSV_HEADER)
    for name, got in zip(BOUND_CSV_HEADER, row):
        value = getattr(rep, name)
        if value is None:
            assert got == ""
        elif isinstance(value, bool):
            assert got == ("true" if value else "false")
        elif isinstance(value, np.ndarray):
            assert got == ";".join(repr(float(c)) for c in value)
            assert bits(np.array([float(c) for c in got.split(";")])) == bits(value)
        else:
            assert got == repr(float(value))
            assert bits(float(got)) == bits(float(value))


def test_csv_round_trip(energy2):
    assert_cells_give_back_the_report(bound_report(energy2, 1.0, X1, XSTAR1))


def test_csv_round_trip_infinite_gap(burg):
    rep = bound_report(burg, 1.0, [-1.0], [-1.0])  # x off dom f: the gap is +inf
    assert rep.gap == INF
    assert_cells_give_back_the_report(rep)
    assert report_to_csv_row(rep)[BOUND_CSV_HEADER.index("gap")] == "inf"


def test_csv_round_trip_absent_fitzpatrick(energy2):
    rep = dataclasses.replace(bound_report(energy2, 1.0, X1, XSTAR1), fitzpatrick=None)
    assert_cells_give_back_the_report(rep)
    assert report_to_csv_row(rep)[BOUND_CSV_HEADER.index("fitzpatrick")] == ""


def test_csv_preserves_full_precision(energy2):
    assert_cells_give_back_the_report(
        bound_report(energy2, 0.1, [1.0 / 3.0, math.pi], [math.e, 2.0 / 7.0])
    )
