import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxgap.bounds import carlier_bound, gap
from proxgap.catalog import make_energy, make_subspace_indicator, subdifferential_operator
from proxgap.cyclic import (
    GammaSchedule,
    fitzpatrick_n_lower,
    generate_cyclic_sequence,
    ncyclic_identity_check,
    series_bound,
)
from proxgap.serialize import SERIES_CSV_HEADER, series_csv_rows


# -------------------------------------------------------------- schedule


def test_schedule_requires_exactly_one_shape():
    with pytest.raises(ValueError):
        GammaSchedule()
    with pytest.raises(ValueError):
        GammaSchedule(constant=1.0, values=(1.0,))
    with pytest.raises(ValueError):
        GammaSchedule.const(0.0)
    with pytest.raises(ValueError):
        GammaSchedule.from_values([1.0, -2.0])


def test_schedule_rejects_infinite_gamma():
    with pytest.raises(ValueError, match="positive and finite"):
        GammaSchedule.const(float("inf"))
    with pytest.raises(ValueError, match="positive and finite"):
        GammaSchedule.from_values([1.0, float("inf")])


def test_schedule_resolve():
    assert np.allclose(GammaSchedule.const(2.0).resolve(3), [2.0, 2.0, 2.0])
    assert np.allclose(GammaSchedule.from_values([1.0, 2.0, 3.0]).resolve(2), [1.0, 2.0])
    with pytest.raises(ValueError, match="supplies 2 values but 5 terms"):
        GammaSchedule.from_values([1.0, 2.0]).resolve(5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GammaSchedule(values=()), "values must be non-empty"),
        (lambda: GammaSchedule.const(1.0).resolve(0), "n_terms must be >= 1, got 0"),
    ],
)
def test_schedule_error_messages(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_schedule_step_sizes_are_floats():
    # ints, bools and numpy scalars are stored as the floats they stand for
    schedules = (
        GammaSchedule(constant=2),
        GammaSchedule(constant=True),
        GammaSchedule.const(np.int64(2)),
        GammaSchedule(values=(1, np.float32(0.5))),
        GammaSchedule.from_values(np.array([1, 2])),
    )
    for schedule in schedules:
        stored = (schedule.constant,) if schedule.values is None else schedule.values
        assert all(type(g) is float for g in stored)
        assert schedule.resolve(2).dtype == np.float64
    A = subdifferential_operator(make_energy(2))
    series = [
        series_csv_rows(generate_cyclic_sequence(A, [1.0, 2.0], [0.5, -1.0], schedule, 5))
        for schedule in (GammaSchedule(constant=2), GammaSchedule.const(2.0))
    ]
    assert series[0] == series[1]


# -------------------------------------------------------------- sequence


def test_graph_point_is_fixed_point(burg):
    A = subdifferential_operator(burg)
    seq = generate_cyclic_sequence(A, [2.0], [-0.5], GammaSchedule.const(1.0), 6)
    assert np.allclose(seq.terms, 0.0, atol=1e-24)
    for a, a_star in seq.points:
        assert np.allclose(a, [2.0], atol=1e-12)
        assert np.allclose(a_star, [-0.5], atol=1e-12)


def test_energy_dual_iterates_closed_form(rng):
    # a_n* = (1 - r^n) x + r^n x* with r = gamma/(1+gamma)
    f = make_energy(3)
    A = subdifferential_operator(f)
    x = rng.normal(size=3)
    x_star = rng.normal(size=3)
    for gamma in (0.5, 1.0, 2.0):
        seq = generate_cyclic_sequence(A, x, x_star, GammaSchedule.const(gamma), 12)
        r = gamma / (1.0 + gamma)
        for n, (_, a_star) in enumerate(seq.points, start=1):
            want = (1.0 - r**n) * x + r**n * x_star
            assert np.allclose(a_star, want, atol=1e-12)


def test_energy_terms_closed_form(rng):
    f = make_energy(2)
    A = subdifferential_operator(f)
    x = rng.normal(size=2)
    x_star = rng.normal(size=2)
    dsq = float(np.sum((x - x_star) ** 2))
    for gamma in (0.5, 1.0, 2.0):
        _, terms = series_bound(A, x, x_star, GammaSchedule.const(gamma), 30)
        for k, term in enumerate(terms, start=1):
            want = gamma ** (2 * k - 1) / (1.0 + gamma) ** (2 * k) * dsq
            assert abs(term - want) <= 1e-12 * (1.0 + want)


def test_energy_series_limit():
    # at gamma = 1 the terms are 4^{-k} ||x-x*||^2 summing to 1/3
    f = make_energy(2)
    A = subdifferential_operator(f)
    x = np.array([1.0, 0.0])
    x_star = np.array([0.0, 1.0])
    partial, terms = series_bound(A, x, x_star, GammaSchedule.const(1.0), 30)
    assert abs(partial - 2.0 / 3.0) <= 1e-9
    assert abs(terms[0] - 0.5) <= 1e-15
    assert partial <= gap(f, x, x_star) + 1e-9


def test_subspace_terms_closed_form():
    f = make_subspace_indicator([[1.0, 0.0]])
    A = subdifferential_operator(f)
    x = [11.0, 3.0]
    x_star = [5.0, 7.0]
    gammas = [2.0, 0.5, 1.0, 4.0]
    seq = generate_cyclic_sequence(A, x, x_star, GammaSchedule.from_values(gammas), 4)
    # term 1 = g1^{-1}||P_perp x||^2 + g1 ||P_U x*||^2, later terms g_k^{-1}||P_perp x||^2
    want = [9.0 / 2.0 + 2.0 * 25.0, 9.0 / 0.5, 9.0 / 1.0, 9.0 / 4.0]
    assert np.allclose(seq.terms, want, rtol=1e-12)
    # a_2 onward collapses to P_U x
    for a, _ in seq.points[1:]:
        assert np.allclose(a, [11.0, 0.0], atol=1e-12)


def test_first_term_is_carlier_bound(rng, burg):
    A = subdifferential_operator(burg)
    x = np.array([abs(rng.normal()) + 0.1])
    x_star = rng.normal(size=1)
    for gamma in (0.1, 1.0, 10.0):
        _, terms = series_bound(A, x, x_star, GammaSchedule.const(gamma), 3)
        assert terms[0] == carlier_bound(A, gamma, x, x_star)


def test_partial_sums_nondecreasing(rng, shannon):
    A = subdifferential_operator(shannon)
    x = np.array([abs(rng.normal()) + 0.1])
    x_star = rng.normal(size=1)
    seq = generate_cyclic_sequence(A, x, x_star, GammaSchedule.const(1.0), 15)
    assert np.all(seq.terms >= 0.0)
    assert np.all(np.diff(seq.partial_sums) >= 0.0)


def test_series_dominated_by_gap(rng, burg):
    f = burg
    A = subdifferential_operator(f)
    for _ in range(30):
        x = np.array([abs(rng.normal()) + 0.1])
        x_star = np.array([-np.exp(rng.uniform(-2.0, 1.0))])
        g = gap(f, x, x_star)
        partial, _ = series_bound(A, x, x_star, GammaSchedule.const(1.0), 12)
        assert partial <= g + 1e-9 * (1.0 + abs(g))


# -------------------------------------------------------------- identity


def test_identity_single_point(rng):
    x = rng.normal(size=3)
    x_star = rng.normal(size=3)
    a = rng.normal(size=3)
    a_star = rng.normal(size=3)
    lhs, rhs = ncyclic_identity_check(x, x_star, [(a, a_star)])
    want = float(np.dot(a - x, x_star - a_star))
    assert abs(lhs - want) <= 1e-12 * (1.0 + abs(want))
    assert abs(rhs - want) <= 1e-12 * (1.0 + abs(want))


def test_identity_random_points(rng):
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        x = rng.normal(size=dim)
        x_star = rng.normal(size=dim)
        pts = [(rng.normal(size=dim), rng.normal(size=dim)) for _ in range(m)]
        lhs, rhs = ncyclic_identity_check(x, x_star, pts)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))


def test_identity_degenerate_points(rng):
    x = rng.normal(size=2)
    x_star = rng.normal(size=2)
    pts = [(x, x_star)] * 4
    lhs, rhs = ncyclic_identity_check(x, x_star, pts)
    assert abs(lhs) <= 1e-12
    assert abs(rhs) <= 1e-12


def test_identity_requires_points():
    with pytest.raises(ValueError, match="^points must contain at least one pair$"):
        ncyclic_identity_check([1.0], [1.0], [])


def test_fitzpatrick_chain_requires_points(energy2):
    A = subdifferential_operator(energy2)
    with pytest.raises(ValueError, match="^points must contain at least one pair$"):
        fitzpatrick_n_lower(A, [1.0, 2.0], [3.0, 4.0], [])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_identity_property(data):
    dim = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 8))
    coord = st.floats(-100.0, 100.0)
    vec = st.lists(coord, min_size=dim, max_size=dim).map(np.array)
    x = data.draw(vec)
    x_star = data.draw(vec)
    pts = [(data.draw(vec), data.draw(vec)) for _ in range(m)]
    lhs, rhs = ncyclic_identity_check(x, x_star, pts)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs) + abs(rhs))


# ------------------------------------------------------------ fitz lower


def test_fitz_lower_equals_partial_sum(rng, burg):
    A = subdifferential_operator(burg)
    x = np.array([abs(rng.normal()) + 0.2])
    x_star = np.array([-np.exp(rng.uniform(-1.0, 1.0))])
    seq = generate_cyclic_sequence(A, x, x_star, GammaSchedule.const(1.0), 8)
    for n in range(1, 9):
        val = fitzpatrick_n_lower(A, x, x_star, list(seq.points[:n]))
        assert abs(val - seq.partial_sums[n - 1]) <= 1e-10 * (1.0 + abs(val))


def test_fitz_lower_monotone_under_extension(rng):
    f = make_energy(2)
    A = subdifferential_operator(f)
    x = rng.normal(size=2)
    x_star = rng.normal(size=2)
    seq = generate_cyclic_sequence(A, x, x_star, GammaSchedule.const(1.0), 6)
    vals = [
        fitzpatrick_n_lower(A, x, x_star, list(seq.points[:n])) for n in range(1, 7)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_fitz_lower_hand_sum():
    f = make_energy(1)
    A = subdifferential_operator(f)
    # single graph point (2, 2): value is <a1 - x, x* - a1*>
    val = fitzpatrick_n_lower(A, [0.0], [4.0], [(np.array([2.0]), np.array([2.0]))])
    assert abs(val - 4.0) <= 1e-15


def test_fitz_lower_takes_list_points(rotator):
    A = rotator
    points = [([1.0, 0.0], [0.0, 1.0]), ([0.0, 1.0], [-1.0, 0.0])]
    as_arrays = [(np.array(a), np.array(a_star)) for a, a_star in points]
    assert fitzpatrick_n_lower(A, [1.0, 2.0], [0.0, 1.0], as_arrays) == -2.0
    assert fitzpatrick_n_lower(A, [1.0, 2.0], [0.0, 1.0], points) == -2.0


def test_fitz_lower_rejects_non_graph_point(burg):
    A = subdifferential_operator(burg)
    good = (np.array([2.0]), np.array([-0.5]))
    bad = (np.array([2.0]), np.array([0.5]))
    with pytest.raises(ValueError, match="point 2 is not in the graph"):
        fitzpatrick_n_lower(A, [1.0], [-1.0], [good, bad])


# ------------------------------------------------------------------- csv


def test_series_csv_rows(rng):
    f = make_energy(2)
    A = subdifferential_operator(f)
    seq = generate_cyclic_sequence(
        A, rng.normal(size=2), rng.normal(size=2), GammaSchedule.const(1.0), 4
    )
    rows = series_csv_rows(seq)
    assert SERIES_CSV_HEADER == ("k", "gamma_k", "term_k", "partial_sum_k")
    assert len(rows) == 4
    assert rows[0][0] == "1"
    assert float(rows[2][3]) == pytest.approx(float(seq.partial_sums[2]))
