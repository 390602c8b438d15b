import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from conftest import bits

from proxgap import analysis, serialize
from proxgap.analysis import (
    ClassifyResult,
    LimitClass,
    boundary_limit_regressions,
    classify_limit_infinity,
    classify_limit_zero,
    gamma_sweep,
    pgm_certificates,
)
from proxgap.catalog import (
    as_operator,
    make_energy,
    make_subspace_indicator,
    parse_spec,
    subdifferential_operator,
)
from proxgap.lambertw import lambert_w_exp
from proxgap.serialize import sweep_csv_rows, sweep_json

X = np.array([1.0, 0.0])
XSTAR = np.array([0.0, 1.0])


# ----------------------------------------------------------------- sweep


def test_sweep_energy_closed_form(energy2):
    A = subdifferential_operator(energy2)
    res = gamma_sweep(A, X, XSTAR)
    dsq = 2.0
    want = res.gammas / (1.0 + res.gammas) ** 2 * dsq
    assert np.allclose(res.values, want, rtol=1e-12)
    assert res.argmax_gamma == 1.0
    assert abs(res.argmax_value - 0.5) <= 1e-12
    assert np.all(np.diff(res.gammas) > 0)


def test_sweep_rotator_closed_form(rotator):
    x = np.array([2.0, -1.0])
    x_star = np.array([0.5, 0.5])
    res = gamma_sweep(rotator, x, x_star)
    dsq = float(np.sum((np.array([-x[1], x[0]]) - x_star) ** 2))
    want = res.gammas / (1.0 + res.gammas**2) * dsq
    assert np.allclose(res.values, want, rtol=1e-12)
    assert res.argmax_gamma == 1.0
    assert abs(res.argmax_value - 0.5 * dsq) <= 1e-12 * dsq


def test_sweep_subspace_closed_form(subspace_e1):
    A = subdifferential_operator(subspace_e1)
    x = np.array([1.0, 3.0])
    x_star = np.array([5.0, 7.0])
    res = gamma_sweep(A, x, x_star, lo=1e-3, hi=1e3, count=25)
    want = 9.0 / res.gammas + res.gammas * 25.0
    assert np.allclose(res.values, want, rtol=1e-12)


def test_sweep_subspace_identically_zero(subspace_e1):
    A = subdifferential_operator(subspace_e1)
    res = gamma_sweep(A, [2.0, 0.0], [0.0, 3.0])
    assert np.allclose(res.values, 0.0, atol=1e-20)
    assert res.limit_zero.kind == "converges"
    assert res.limit_infinity.kind == "converges"


def test_sweep_subspace_monotone_cases(subspace_e1):
    A = subdifferential_operator(subspace_e1)
    # x in U, x* leaning into U: the bound grows with gamma
    up = gamma_sweep(A, [2.0, 0.0], [1.0, 1.0], lo=1e-3, hi=1e3, count=25)
    assert np.all(np.diff(up.values) > 0)
    # x off U, x* in the orthogonal complement: it decays
    down = gamma_sweep(A, [2.0, 1.0], [0.0, 3.0], lo=1e-3, hi=1e3, count=25)
    assert np.all(np.diff(down.values) < 0)


def test_sweep_validates_grid(energy2):
    A = subdifferential_operator(energy2)
    with pytest.raises(ValueError):
        gamma_sweep(A, X, XSTAR, lo=1.0, hi=0.1)
    with pytest.raises(ValueError):
        gamma_sweep(A, X, XSTAR, count=2)


@pytest.mark.parametrize("lo, hi", [(1e-6, math.inf), (math.nan, 1.0), (1e-6, math.nan)])
def test_sweep_rejects_non_finite_grid_ends(energy2, lo, hi):
    A = subdifferential_operator(energy2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="need 0 < lo < hi < inf"):
            gamma_sweep(A, X, XSTAR, lo=lo, hi=hi)


def test_sweep_serialization(energy2):
    A = subdifferential_operator(energy2)
    res = gamma_sweep(A, X, XSTAR, count=7)
    rows = sweep_csv_rows(res)
    assert len(rows) == 7
    assert float(rows[0][0]) == pytest.approx(1e-6)
    payload = json.loads(json.dumps(sweep_json(res)))
    assert payload["argmax_gamma"] == res.argmax_gamma
    assert payload["limit_zero"]["kind"] == res.limit_zero.kind


# -------------------------------------------------------- classification


def test_classify_burg_table(burg):
    A = subdifferential_operator(burg)

    diverge = classify_limit_zero(A, [-1.0], [1.0])
    assert diverge.predicted.kind == "diverges"
    assert diverge.agree is True

    converge = classify_limit_zero(A, [1.0], [1.0])
    assert converge.predicted.describe() == "CONVERGES_TO(0.0)"
    assert converge.agree is True


def test_classify_burg_boundary(burg):
    A = subdifferential_operator(burg)
    res = classify_limit_zero(A, [0.0], [1.0])
    assert res.predicted.kind == "boundary"
    assert res.agree is None
    assert abs(res.boundary_value - 1.0) <= 1e-3


def test_classify_infinity_duality(burg, energy2):
    A = subdifferential_operator(burg)
    # 1 is outside the closed range (-inf, 0) of d(burg)
    diverge = classify_limit_infinity(A, [1.0], [1.0])
    assert diverge.predicted.kind == "diverges"
    assert diverge.agree is True

    converge = classify_limit_infinity(A, [1.0], [-1.0])
    assert converge.predicted.kind == "converges"
    assert converge.agree is True

    B = subdifferential_operator(energy2)
    surjective = classify_limit_infinity(B, X, XSTAR)
    assert surjective.predicted.kind == "converges"
    assert surjective.agree is True


def test_classify_infinity_names_its_own_arguments(energy2):
    A = subdifferential_operator(energy2)
    with pytest.raises(ValueError, match="^x_star has non-finite entries"):
        classify_limit_infinity(A, [1.0, 2.0], [math.nan, 1.0])
    with pytest.raises(ValueError, match="^x_star has dimension 1, expected 2"):
        classify_limit_infinity(A, [1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="^x has dimension 1, expected 2"):
        classify_limit_infinity(A, [1.0], [1.0, 2.0])


def test_classify_subspace_membership(subspace_e1):
    A = subdifferential_operator(subspace_e1)
    inside = classify_limit_zero(A, [2.0, 0.0], [1.0, 1.0])
    assert inside.predicted.kind == "converges" and inside.agree is True
    outside = classify_limit_zero(A, [2.0, 1.0], [1.0, 1.0])
    assert outside.predicted.kind == "diverges" and outside.agree is True


CHAIN_SPECS = (
    "energy:dim=2",
    "energy:dim=64",
    "subspace:dim=3:basis=1,0,0;0,1,1",
    "burg",
    "shannon",
    "rotator",
)


def _swept_classification(A, x, x_star):
    """The gamma -> 0 classification as the 57-point sweep over 1e-12..1e2 defines it."""
    sweep = gamma_sweep(A, x, x_star, lo=1e-12, hi=1e2, count=57)
    empirical = sweep.limit_zero
    if not A.dom.closure_contains(x):
        predicted = LimitClass("diverges")
    elif A.dom.contains(x):
        predicted = LimitClass("converges", 0.0)
    else:
        return ClassifyResult(LimitClass("boundary"), empirical, float(sweep.values[0]), None)
    agree = empirical.kind == predicted.kind
    if agree and predicted.kind == "converges":
        agree = abs(empirical.value - predicted.value) <= 1e-3 * (1.0 + abs(predicted.value))
    return ClassifyResult(predicted, empirical, None, agree)


@pytest.mark.parametrize("spec", CHAIN_SPECS)
def test_classifiers_match_the_swept_definition(spec, rng):
    # the five gammas read are the five smallest of the 57-point grid, so
    # every field equals the sweep's bit for bit, boundary points included
    op = as_operator(parse_spec(spec))
    for A in (op, op.inverse()):
        points = [(np.zeros(A.dim), rng.normal(size=A.dim))]
        points += [(rng.normal(size=A.dim), np.zeros(A.dim))]
        for _ in range(30):
            x, x_star = rng.normal(size=(2, A.dim)) * 10.0 ** rng.uniform(-3.0, 8.0, size=(2, 1))
            points.append((x, x_star))
        for x, x_star in points:
            want = _swept_classification(A, x, x_star)
            assert bits(classify_limit_zero(A, x, x_star)) == bits(want), (A.name, x, x_star)
            want = _swept_classification(A.inverse(), x_star, x)
            assert bits(classify_limit_infinity(A, x, x_star)) == bits(want), (A.name, x, x_star)


def test_classifiers_read_no_gamma_far_from_their_limit():
    # z = x + gamma x* overflows from gamma = 31.6 on, where the classifier
    # reads nothing: x is on U, so C converges to 0 as gamma -> 0
    A = as_operator(parse_spec("subspace:dim=2:basis=1,0"))
    zero = classify_limit_zero(A, [1.0, 0.0], [0.0, 1e307])
    assert zero.empirical == LimitClass("converges", 0.0)
    assert zero.predicted.describe() == "CONVERGES_TO(0.0)" and zero.agree is True
    # and by duality at gamma -> inf, where x* is on U-perp
    infinity = classify_limit_infinity(A, [1e307, 0.0], [0.0, 1.0])
    assert infinity.empirical == LimitClass("converges", 0.0) and infinity.agree is True


def test_classifiers_do_not_sweep(monkeypatch, burg):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a classifier called gamma_sweep")

    monkeypatch.setattr(analysis, "gamma_sweep", no_sweep)
    A = subdifferential_operator(burg)
    assert classify_limit_zero(A, [1.0], [1.0]).agree is True
    assert classify_limit_infinity(A, [1.0], [-1.0]).agree is True


def test_classifiers_validate_each_argument_once(monkeypatch, energy2):
    names = []
    as_vector = analysis.as_vector

    def counted(value, dim, name):
        names.append(name)
        return as_vector(value, dim, name)

    monkeypatch.setattr(analysis, "as_vector", counted)
    A = subdifferential_operator(energy2)
    classify_limit_zero(A, X, XSTAR)
    assert names == ["x", "x_star"]
    names.clear()
    classify_limit_infinity(A, X, XSTAR)
    assert names == ["x", "x_star"]


def test_a_window_of_nan_or_infinite_values_is_undetermined_without_warning(rotator):
    # every C is +inf at this point, so the window's range is inf - inf = NaN and
    # no value falls below the next; that window, and every window holding a NaN,
    # is undetermined, with no numpy warning
    x, x_star = [1e300, 1e300], [1e300, -1e300]
    with np.errstate(over="ignore"):  # the squared norms overflow to +inf
        sweep = gamma_sweep(rotator, x, x_star, count=5)
        zero = classify_limit_zero(rotator, x, x_star)
    undetermined = LimitClass("undetermined")
    assert sweep.values.tolist() == [math.inf] * 5
    assert sweep.limit_zero == sweep.limit_infinity == zero.empirical == undetermined
    converging, diverging = [2.0] * 5, [1e14, 1e13, 1e12, 1e11, 1e10]
    assert analysis._classify_window(converging) == LimitClass("converges", 2.0)
    assert analysis._classify_window(diverging) == LimitClass("diverges")
    for window in (converging, diverging, [math.inf] * 5):
        for i in range(5):
            holed = window[:i] + [math.nan] + window[i + 1 :]
            assert analysis._classify_window(holed) == undetermined


# ----------------------------------------------------- boundary regressions


def test_boundary_report_flags():
    report = boundary_limit_regressions()
    assert report.burg_matches
    assert report.burg_limit_ok
    assert report.shannon_matches
    assert report.shannon_limit_ok
    for row in report.rows:
        assert math.isfinite(row.carlier)


def test_boundary_flags_fail_on_a_nan_carlier(monkeypatch):
    from proxgap import analysis

    monkeypatch.setattr(analysis, "carlier_bound", lambda *args: math.nan)
    report = analysis.boundary_limit_regressions()
    assert len(report.rows) == 24
    assert not report.burg_matches
    assert not report.burg_limit_ok
    assert not report.shannon_matches
    assert not report.shannon_limit_ok


def test_boundary_burg_rows_match_closed_form():
    report = boundary_limit_regressions()
    for row in report.rows:
        if row.entry != "burg":
            continue
        closed = ((math.sqrt(row.gamma) * row.y + math.sqrt(row.gamma * row.y**2 + 4.0)) / 2.0) ** 2
        assert abs(row.carlier - closed) <= 1e-10 * (1.0 + closed)
        if row.gamma == 1e-8:
            assert abs(row.carlier - 1.0) <= 1e-3


def test_boundary_shannon_rows():
    report = boundary_limit_regressions()
    for row in report.rows:
        if row.entry != "shannon":
            continue
        w = lambert_w_exp(row.y - math.log(row.gamma))
        closed = row.gamma * w * w
        assert abs(row.carlier - closed) <= 1e-12 * (1.0 + closed)
        if row.gamma == 1e-6:
            assert row.carlier < 1e-3


def test_boundary_burg_y_zero_is_exactly_one():
    report = boundary_limit_regressions()
    rows = [r for r in report.rows if r.entry == "burg" and r.y == 0.0]
    assert rows
    for row in rows:
        assert row.closed_form == 1.0
        assert abs(row.carlier - 1.0) <= 1e-10


# ------------------------------------------------------------------- pgm


def test_pgm_demo_certificates(energy2, subspace_e1):
    trace = pgm_certificates(energy2, subspace_e1, 0.5, 1.0, [4.0, 3.0], iters=200)
    certs = trace.carlier_certs
    brefs = trace.bregman_refs
    assert np.all(certs <= brefs + 1e-12)
    tail = slice(len(certs) - len(certs) // 10, None)
    assert np.max(certs[tail]) < 1e-8
    assert np.max(brefs[tail]) < 1e-8
    # iterates approach the minimizer 0 of the composite problem
    assert np.linalg.norm(trace.x_ref) <= 1e-10
    assert np.all(np.diff(trace.partial_sums) >= 0.0)
    assert trace.partial_sums[-1] <= float(np.sum(brefs)) + 1e-12


def test_pgm_reference_start_gives_zero_certificates(energy2, subspace_e1):
    trace = pgm_certificates(energy2, subspace_e1, 0.5, 1.0, [0.0, 0.0], iters=20)
    assert np.allclose(trace.carlier_certs, 0.0, atol=1e-15)
    assert np.allclose(trace.bregman_refs, 0.0, atol=1e-15)


def test_pgm_runs_its_recursion_once(energy2, subspace_e1):
    # the certified iterates are the head of the reference run: 10 * iters
    # prox steps in all, where a second run would add iters more
    calls = []

    def prox(gamma, z):
        calls.append(gamma)
        return subspace_e1.prox(gamma, z)

    counted = dataclasses.replace(subspace_e1, prox=prox)
    trace = pgm_certificates(energy2, counted, 0.5, 1.0, [4.0, 3.0], iters=7)
    assert len(calls) == 70
    head = pgm_certificates(energy2, subspace_e1, 0.5, 1.0, [4.0, 3.0], iters=70)
    assert [y.tobytes() for y in trace.iterates] == [y.tobytes() for y in head.iterates[:8]]


def test_pgm_divergence_raises(energy2, subspace_e1):
    with pytest.raises(ValueError, match="diverged"):
        pgm_certificates(energy2, subspace_e1, 10.0, 1.0, [4.0, 3.0], iters=200)


def test_pgm_validates_arguments(energy2, subspace_e1):
    with pytest.raises(ValueError):
        pgm_certificates(energy2, subspace_e1, -0.5, 1.0, [1.0, 1.0])
    with pytest.raises(ValueError):
        pgm_certificates(energy2, subspace_e1, 0.5, 0.0, [1.0, 1.0])
    with pytest.raises(ValueError, match="no gradient witness"):
        pgm_certificates(subspace_e1, energy2, 0.5, 1.0, [1.0, 1.0])


@pytest.mark.parametrize("iters", [0, -1])
def test_pgm_rejects_iters_below_one(energy2, subspace_e1, iters):
    # 0 would certify y0 against itself, and a negative count certify nothing
    with pytest.raises(ValueError, match=f"^iters must be >= 1, got {iters}$"):
        pgm_certificates(energy2, subspace_e1, 0.5, 1.0, [4.0, 3.0], iters=iters)


def test_pgm_csv_rows(energy2, subspace_e1):
    trace = pgm_certificates(energy2, subspace_e1, 0.5, 1.0, [4.0, 3.0], iters=5)
    rows = serialize.pgm_csv_rows(trace)
    assert serialize.PGM_CSV_HEADER == ("n", "bregman_ref", "carlier_cert", "partial_sum")
    assert len(rows) == 6  # includes the starting point
    assert float(rows[-1][3]) == pytest.approx(float(trace.partial_sums[-1]))
