"""Acceptance suite: eleven criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Each criterion is a separate test so a single regression cannot hide
the others.
"""

import math
import time

import numpy as np

from proxgap import verify
from proxgap.analysis import (
    boundary_limit_regressions,
    classify_limit_infinity,
    classify_limit_zero,
    gamma_sweep,
    pgm_certificates,
)
from proxgap.bounds import (
    bound_report,
    carlier_bound,
    dual_carlier_check,
    fitzpatrick_bound,
    gap,
    minty_decompose,
)
from proxgap.catalog import (
    make_burg,
    make_energy,
    make_rotator,
    make_shannon,
    make_subspace_indicator,
    subdifferential_operator,
)
from proxgap.cyclic import GammaSchedule, generate_cyclic_sequence, ncyclic_identity_check
from proxgap.oracle import numeric_conjugate, numeric_prox

GAMMAS = (0.01, 0.1, 1.0, 10.0, 100.0)


def _report(number, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {label}")
    assert not failures, f"criterion {number}: " + "; ".join(str(f) for f in failures[:5])


def _draw_primal(f, rng, i):
    if f.name == "energy":
        return rng.normal(size=f.dim)
    if f.name == "subspace":
        z = rng.normal(size=f.dim) * 2.0
        return f.prox(1.0, z) if i % 2 == 0 else z
    return np.array([abs(rng.normal()) + 0.05])


def _draw_dual(f, rng):
    if f.name == "energy":
        return rng.normal(size=f.dim)
    if f.name == "subspace":
        z = rng.normal(size=f.dim) * 2.0
        return z - f.prox(1.0, z)
    if f.name == "burg":
        return np.array([-math.exp(rng.normal())])
    return rng.normal(size=1)


def test_criterion_01_chain_inequality():
    rng = np.random.default_rng(42)
    failures = []
    start = time.perf_counter()
    for f in verify.function_entries():
        A = subdifferential_operator(f)
        for i in range(500):
            x = _draw_primal(f, rng, i)
            x_star = _draw_dual(f, rng)
            g = gap(f, x, x_star)
            fz = fitzpatrick_bound(f, x, x_star)
            for gamma in GAMMAS:
                c = carlier_bound(A, gamma, x, x_star)
                mid_ok = True if fz is None else (g >= fz - 1e-9 and fz >= c - 1e-9)
                if not mid_ok or g < c - 1e-9 or c < -1e-9:
                    failures.append(f"{f.name} gamma={gamma}: {g} >= {fz} >= {c} broken")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _report(1, "chain gap >= fitzpatrick >= carlier >= 0", failures)


def test_criterion_02_duality():
    rng = np.random.default_rng(42)
    operators = verify.operator_entries()
    failures = []
    start = time.perf_counter()
    for A in operators:
        for _ in range(200):
            x = rng.normal(size=A.dim) * 2.0
            x_star = rng.normal(size=A.dim) * 2.0
            for gamma in GAMMAS:
                lhs, rhs = dual_carlier_check(A, gamma, x, x_star)
                if abs(lhs - rhs) > 1e-10 * (1.0 + abs(lhs)):
                    failures.append(f"{A.name} gamma={gamma}: {lhs} vs {rhs}")
    elapsed = time.perf_counter() - start
    if elapsed >= 2.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 2s")
    _report(2, "carlier bound is self-dual under operator inversion", failures)


def test_criterion_03_minty_identities():
    rng = np.random.default_rng(42)
    operators = verify.operator_entries()
    failures = []
    for A in operators:
        for i in range(100):
            x = rng.normal(size=A.dim) * 2.0
            x_star = rng.normal(size=A.dim) * 2.0
            gamma = GAMMAS[i % len(GAMMAS)]
            pair = minty_decompose(A, gamma, x, x_star)
            a, a_star = pair.a, pair.a_star
            dsq = float(np.sum((x - a) ** 2))

            m3 = float(np.max(np.abs((a + gamma * a_star) - (x + gamma * x_star))))
            if m3 > 1e-12:
                failures.append(f"{A.name} M3 residual {m3}")

            m6 = dsq + float(np.sum((x_star - a_star) ** 2))
            want6 = (1.0 + gamma**-2) * dsq
            if abs(m6 - want6) > 1e-10 * (1.0 + abs(m6) + abs(want6)):
                failures.append(f"{A.name} M6 {m6} vs {want6}")

            m8 = float(np.sum(((x - a) - (x_star - a_star)) ** 2))
            want8 = (1.0 + 1.0 / gamma) ** 2 * dsq
            if abs(m8 - want8) > 1e-10 * (1.0 + abs(m8) + abs(want8)):
                failures.append(f"{A.name} M8 {m8} vs {want8}")

            key = float(np.dot(a - x, x_star - a_star))
            want_key = dsq / gamma
            if abs(key - want_key) > 1e-10 * (1.0 + abs(key) + abs(want_key)):
                failures.append(f"{A.name} key {key} vs {want_key}")
    _report(3, "Minty reassembly, product-space norms, inner-product identity", failures)


def test_criterion_04_closed_form_regressions():
    failures = []

    # The grid stays within [1e-2, 1e2]: evaluating x - J_gamma(x + gamma x*)
    # at more extreme gamma loses digits to cancellation (J approaches x or
    # x*), so 1e-12 relative agreement is only meaningful in this band.
    grid = dict(lo=1e-2, hi=1e2, count=49)

    energy = subdifferential_operator(make_energy(2))
    x = np.array([1.5, -0.5])
    x_star = np.array([-1.0, 2.0])
    dsq = float(np.sum((x - x_star) ** 2))
    res = gamma_sweep(energy, x, x_star, **grid)
    want = res.gammas / (1.0 + res.gammas) ** 2 * dsq
    if not np.allclose(res.values, want, rtol=1e-12, atol=0.0):
        failures.append("energy sweep mismatch")
    step = math.log10(res.gammas[1] / res.gammas[0])
    if abs(math.log10(res.argmax_gamma)) > step + 1e-12:
        failures.append(f"energy argmax {res.argmax_gamma} not at 1 within grid step")
    if abs(res.argmax_value - 0.25 * dsq) > 1e-12 * dsq:
        failures.append("energy peak is not ||x-x*||^2/4")

    rot = make_rotator()
    rsq = float(np.sum((np.array([-x[1], x[0]]) - x_star) ** 2))
    res = gamma_sweep(rot, x, x_star, **grid)
    want = res.gammas / (1.0 + res.gammas**2) * rsq
    if not np.allclose(res.values, want, rtol=1e-12, atol=0.0):
        failures.append("rotator sweep mismatch")
    if abs(math.log10(res.argmax_gamma)) > step + 1e-12:
        failures.append(f"rotator argmax {res.argmax_gamma} not at 1 within grid step")
    if abs(res.argmax_value - 0.5 * rsq) > 1e-12 * rsq:
        failures.append("rotator peak is not ||Ax-x*||^2/2")

    sub = subdifferential_operator(make_subspace_indicator([[1.0, 0.0]]))
    xs = np.array([1.0, 3.0])
    xs_star = np.array([5.0, 7.0])
    res = gamma_sweep(sub, xs, xs_star, **grid)
    want = 9.0 / res.gammas + res.gammas * 25.0
    if not np.allclose(res.values, want, rtol=1e-12, atol=0.0):
        failures.append("subspace sweep mismatch")

    _report(4, "energy, rotator, subspace sweeps match closed forms", failures)


def test_criterion_05_boundary_limits():
    failures = []
    report = boundary_limit_regressions()
    for row in report.rows:
        if not math.isfinite(row.carlier):
            failures.append(f"{row.entry} overflowed at gamma={row.gamma}")
        if row.entry == "burg":
            closed = (
                (math.sqrt(row.gamma) * row.y + math.sqrt(row.gamma * row.y**2 + 4.0)) / 2.0
            ) ** 2
            if abs(row.carlier - closed) > 1e-10 * (1.0 + closed):
                failures.append(f"burg y={row.y} gamma={row.gamma} off closed form")
            if row.gamma == 1e-8 and abs(row.carlier - 1.0) > 1e-3:
                failures.append(f"burg y={row.y}: {row.carlier} not within 1e-3 of 1")
        if row.entry == "shannon" and row.gamma == 1e-6 and row.carlier >= 1e-3:
            failures.append(f"shannon y={row.y}: {row.carlier} not below 1e-3")
    if not (report.burg_matches and report.burg_limit_ok):
        failures.append("burg flags not set")
    if not (report.shannon_matches and report.shannon_limit_ok):
        failures.append("shannon flags not set")
    _report(5, "Burg limit 1 and Shannon limit 0 at the domain boundary", failures)


def test_criterion_06_asymptotic_classification():
    failures = []

    def expect_agreement(tag, result):
        if result.agree is not True:
            failures.append(
                f"{tag}: predicted {result.predicted.describe()} "
                f"empirical {result.empirical.describe()}"
            )

    burg = subdifferential_operator(make_burg())
    for xv in (-1.0, 1.0):
        for sv in (-1.0, 1.0):
            expect_agreement(
                f"burg zero x={xv} x*={sv}", classify_limit_zero(burg, [xv], [sv])
            )
            expect_agreement(
                f"burg inf x={xv} x*={sv}", classify_limit_infinity(burg, [xv], [sv])
            )

    energy = subdifferential_operator(make_energy(2))
    energy_points = [
        ([1.0, 0.0], [0.0, 1.0]),
        ([2.0, 1.0], [-1.0, 3.0]),
        ([0.0, 0.0], [1.0, 1.0]),
        ([-1.0, 2.0], [0.5, -0.5]),
    ]
    for x, x_star in energy_points:
        expect_agreement(f"energy zero {x}", classify_limit_zero(energy, x, x_star))
        expect_agreement(f"energy inf {x_star}", classify_limit_infinity(energy, x, x_star))

    sub = subdifferential_operator(make_subspace_indicator([[1.0, 0.0]]))
    sub_points = [
        ([2.0, 0.0], [0.0, 3.0]),  # x in U, x* in the complement
        ([2.0, 0.0], [1.0, 1.0]),  # x in U, x* leaning into U
        ([2.0, 1.0], [0.0, 3.0]),  # x off U, x* in the complement
        ([2.0, 1.0], [1.0, 1.0]),  # both off
    ]
    for x, x_star in sub_points:
        expect_agreement(f"subspace zero {x}", classify_limit_zero(sub, x, x_star))
        expect_agreement(f"subspace inf {x_star}", classify_limit_infinity(sub, x, x_star))

    _report(6, "theorem and sweep agree on 12 designated points", failures)


def test_criterion_07_series_bound():
    failures = []
    rng = np.random.default_rng(42)

    energy = make_energy(2)
    A = subdifferential_operator(energy)
    x = rng.normal(size=2)
    x_star = rng.normal(size=2)
    dsq = float(np.sum((x - x_star) ** 2))
    seq = generate_cyclic_sequence(A, x, x_star, GammaSchedule.const(1.0), 30)
    partial = float(seq.partial_sums[-1])
    if abs(partial - dsq / 3.0) > 1e-9:
        failures.append(f"energy partial {partial} vs limit {dsq / 3.0}")
    if partial > gap(energy, x, x_star) + 1e-9:
        failures.append("energy partial exceeds gap")

    sub = make_subspace_indicator([[1.0, 0.0]])
    B = subdifferential_operator(sub)
    xs = np.array([11.0, 3.0])
    xs_star = np.array([5.0, 7.0])
    gammas = [2.0, 0.5, 1.0, 4.0, 3.0, 0.25]
    seq = generate_cyclic_sequence(B, xs, xs_star, GammaSchedule.from_values(gammas), 6)
    perp_sq, in_sq = 9.0, 25.0
    running = 0.0
    for n, gamma_n in enumerate(gammas, start=1):
        running += 1.0 / gamma_n
        want = gammas[0] * in_sq + running * perp_sq
        got = float(seq.partial_sums[n - 1])
        if abs(got - want) > 1e-12 * (1.0 + want):
            failures.append(f"subspace partial_{n} {got} vs {want}")

    for f in (make_burg(), make_shannon()):
        C = subdifferential_operator(f)
        for _ in range(100):
            xq = np.array([abs(rng.normal()) + 0.1])
            xq_star = (
                np.array([-math.exp(rng.normal())])
                if f.name == "burg"
                else rng.normal(size=1)
            )
            seq = generate_cyclic_sequence(C, xq, xq_star, GammaSchedule.const(1.0), 12)
            if float(seq.terms[0]) != carlier_bound(C, 1.0, xq, xq_star):
                failures.append(f"{f.name}: one-term truncation differs from carlier")
            g = gap(f, xq, xq_star)
            if np.any(seq.partial_sums > g + 1e-9):
                failures.append(f"{f.name}: partial sum exceeds gap {g}")

    _report(7, "series truncations stay below the gap and match closed forms", failures)


def test_criterion_08_cyclic_identity():
    rng = np.random.default_rng(42)
    failures = []
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        x = rng.normal(size=dim)
        x_star = rng.normal(size=dim)
        pts = [(rng.normal(size=dim), rng.normal(size=dim)) for _ in range(m)]
        lhs, rhs = ncyclic_identity_check(x, x_star, pts)
        if abs(lhs - rhs) > 1e-12 * (1.0 + abs(lhs) + abs(rhs)):
            failures.append(f"dim={dim} m={m}: {lhs} vs {rhs}")
    _report(8, "chain polarization identity on 1000 random point lists", failures)


def test_criterion_09_oracle_agreement():
    rng = np.random.default_rng(42)
    failures = []
    start = time.perf_counter()
    for f in verify.function_entries():
        for x_star in verify.conjugate_queries(f, rng, 50):
            closed = f.conjugate(x_star)
            est = numeric_conjugate(f, x_star)
            if est.on_boundary:
                failures.append(f"{f.name} conjugate at {x_star}: boundary hit")
            elif abs(est.value - closed) > 1e-4 * (1.0 + abs(closed)):
                failures.append(f"{f.name} conjugate at {x_star}: {est.value} vs {closed}")
        for gamma, z in verify.prox_queries(f, rng, 50):
            got = numeric_prox(f, gamma, z)
            want = f.prox(gamma, z)
            if float(np.max(np.abs(got - want))) > 1e-5:
                failures.append(f"{f.name} prox gamma={gamma} z={z}: {got} vs {want}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 30s")
    _report(9, "closed forms agree with brute-force oracles", failures)


def test_criterion_10_pgm_certificates():
    failures = []
    trace = pgm_certificates(
        make_energy(2), make_subspace_indicator([[1.0, 0.0]]), 0.5, 1.0, [4.0, 3.0], iters=200
    )
    certs = trace.carlier_certs
    brefs = trace.bregman_refs
    if not np.all(certs <= brefs + 1e-12):
        failures.append("certificate exceeds the Bregman gap")
    tail = slice(len(certs) - len(certs) // 10, None)
    if not (np.all(np.diff(certs[tail]) <= 0.0) and np.max(certs[tail]) < 1e-8):
        failures.append("certificates not monotonically below 1e-8 over the last 10%")
    if not (np.all(np.diff(brefs[tail]) <= 0.0) and np.max(brefs[tail]) < 1e-8):
        failures.append("Bregman gaps not monotonically below 1e-8 over the last 10%")
    _report(10, "proximal gradient certificates stay below the Bregman gaps", failures)


def test_criterion_11_equality_flags():
    rng = np.random.default_rng(42)
    failures = []

    def graph_point(f):
        if f.name == "energy":
            x = rng.normal(size=2)
            return x, x.copy()
        if f.name == "subspace":
            x = f.prox(1.0, rng.normal(size=2) * 2.0)
            z = rng.normal(size=2) * 2.0
            return x, z - f.prox(1.0, z)
        x = np.array([abs(rng.normal()) + 0.1])
        if f.name == "burg":
            return x, -1.0 / x
        return x, np.log(x)

    for f in verify.function_entries():
        for i in range(100):
            x, x_star = graph_point(f)
            rep = bound_report(f, GAMMAS[i % len(GAMMAS)], x, x_star)
            if not (rep.gap <= 1e-9 and rep.carlier <= 1e-9):
                failures.append(f"{f.name}: graph point has gap {rep.gap}, carlier {rep.carlier}")
            if not (rep.gap_zero and rep.gap_equals_carlier):
                failures.append(f"{f.name}: equality flags not set on a graph point")

    energy = make_energy(2)
    for gamma in (0.01, 0.1, 0.9, 1.1, 10.0, 100.0):
        x = rng.normal(size=2)
        x_star = x + rng.normal(size=2)
        rep = bound_report(energy, gamma, x, x_star)
        if not rep.gap > rep.carlier:
            failures.append(f"energy gamma={gamma}: gap {rep.gap} not above carlier {rep.carlier}")

    _report(11, "equality flags characterize graph points", failures)
