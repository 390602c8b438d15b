import json
import math
import warnings

import numpy as np
import pytest

from proxgap import serialize
from proxgap.analysis import (
    boundary_limit_regressions,
    classify_limit_infinity,
    classify_limit_zero,
    gamma_sweep,
    pgm_certificates,
)
from proxgap.catalog import (
    apply_rotator,
    make_energy,
    make_subspace_indicator,
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
    dsq = float(np.sum((apply_rotator(x) - x_star) ** 2))
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


def test_classify_subspace_membership(subspace_e1):
    A = subdifferential_operator(subspace_e1)
    inside = classify_limit_zero(A, [2.0, 0.0], [1.0, 1.0])
    assert inside.predicted.kind == "converges" and inside.agree is True
    outside = classify_limit_zero(A, [2.0, 1.0], [1.0, 1.0])
    assert outside.predicted.kind == "diverges" and outside.agree is True


# ----------------------------------------------------- boundary regressions


def test_boundary_report_flags():
    report = boundary_limit_regressions()
    assert report.burg_matches
    assert report.burg_limit_ok
    assert report.shannon_matches
    assert report.shannon_limit_ok
    for row in report.rows:
        assert math.isfinite(row.carlier)


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


def test_pgm_csv_rows(energy2, subspace_e1):
    trace = pgm_certificates(energy2, subspace_e1, 0.5, 1.0, [4.0, 3.0], iters=5)
    rows = serialize.pgm_csv_rows(trace)
    assert serialize.PGM_CSV_HEADER == ("n", "bregman_ref", "carlier_cert", "partial_sum")
    assert len(rows) == 6  # includes the starting point
    assert float(rows[-1][3]) == pytest.approx(float(trace.partial_sums[-1]))
