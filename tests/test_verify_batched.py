"""Differential tests of the stacked verify suites against per-point loops.

The reference suites below are the per-point form of ``proxgap.verify``:
plain loops over the public API that draw one point at a time, call
``bound_report``, ``dual_carlier_check``, the public resolvents and
graph tests, ``pair_inequality_check`` and the one-point oracles, and
format a message for every check.  Each check is computed once and
judged under every slack of a run, so one pass serves all of them.

``run_all`` must give equal SuiteResults (counts and byte-identical
failure messages) and leave the generator where the loops leave it; its
runs for one seed share their oracle estimates, which do not depend on
the slack.  The
row-wise Fitzpatrick and graph kernels, and the shared round-0 grid of
``numeric_conjugate``, must equal their one-point calls bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from proxgap import catalog, oracle, verify
from proxgap.bounds import (
    bound_report,
    dual_carlier_check,
    fitzpatrick_bound,
    pair_inequality_check,
)
from proxgap.catalog import conjugate_function, subdifferential_operator
from proxgap.core import INF, inner
from proxgap.oracle import HI, LO, POINTS_PER_AXIS, REFINE_ROUNDS, numeric_conjugate, numeric_prox
from proxgap.verify import GAMMA_SET, SuiteResult

SEEDS = range(20)
SLACKS = (None, 0.0, 1e-13)
SUITES = ("chain", "duality", "minty", "pair", "oracle")


def _pick(slack, default):
    return default if slack is None else slack


def _record(results, oks, message):
    for result, ok in zip(results, oks):
        if ok:
            result.passed += 1
        else:
            result.failed += 1
            if len(result.failures) < 5:
                result.failures.append(message)


def _domain_sample(f, rng):
    if f.name == "energy":
        return rng.normal(size=f.dim)
    if f.name == "subspace":
        return f.prox(1.0, rng.normal(size=f.dim))
    return np.array([abs(rng.normal()) + 0.1])


def ref_chain(rng, slacks):
    results = [SuiteResult("chain-inequality") for _ in slacks]
    for f in verify.function_entries():
        for _ in range(50):
            x = _domain_sample(f, rng)
            x_star = rng.normal(size=f.dim)
            for gamma in GAMMA_SET:
                rep = bound_report(f, gamma, x, x_star)
                oks = []
                for slack in slacks:
                    scale = _pick(slack, 1e-9) * (1.0 + abs(rep.carlier))
                    upper = rep.gap
                    ok = True
                    if rep.fitzpatrick is not None:
                        ok = rep.fitzpatrick <= upper + scale
                        upper = min(upper, rep.fitzpatrick)
                    oks.append(ok and rep.carlier <= upper + scale and rep.carlier >= -scale)
                _record(
                    results,
                    oks,
                    f"{f.name} gamma={gamma} x={x.tolist()} x_star={x_star.tolist()}: "
                    f"gap={rep.gap!r} fitz={rep.fitzpatrick!r} carlier={rep.carlier!r}",
                )
    return results


def ref_duality(rng, slacks):
    results = [SuiteResult("duality") for _ in slacks]
    for A in verify.operator_entries():
        for _ in range(40):
            x = rng.normal(size=A.dim)
            x_star = rng.normal(size=A.dim)
            for gamma in GAMMA_SET:
                lhs, rhs = dual_carlier_check(A, gamma, x, x_star)
                _record(
                    results,
                    [abs(lhs - rhs) <= _pick(s, 1e-10) * (1.0 + abs(lhs)) for s in slacks],
                    f"{A.name} gamma={gamma} x={x.tolist()} x_star={x_star.tolist()}: "
                    f"lhs={lhs!r} rhs={rhs!r}",
                )
    return results


def norm_sq(v):
    return float(np.dot(v, v))


def _close(lhs, rhs, s):
    return abs(lhs - rhs) <= s * (1.0 + abs(lhs) + abs(rhs))


def ref_minty(rng, slacks):
    results = [SuiteResult("minty-identities") for _ in slacks]
    for A in verify.operator_entries():
        for _ in range(20):
            x = rng.normal(size=A.dim)
            x_star = rng.normal(size=A.dim)
            for gamma in GAMMA_SET:
                z = x + gamma * x_star
                a = A.resolvent(gamma, z)
                a_star = (z - a) / gamma
                label = f"{A.name} gamma={gamma} x={x.tolist()} x_star={x_star.tolist()}"
                member = A.graph_contains(a, a_star)
                _record(results, [member] * len(slacks), f"{label}: (a, a*) not in graph")
                m3 = float(np.max(np.abs(z - (a + gamma * a_star))))
                _record(
                    results,
                    [m3 <= _pick(s, 1e-12) for s in slacks],
                    f"{label}: reassembly error {m3!r}",
                )
                sq = norm_sq(x - a)
                for name, lhs, rhs in (
                    ("joint norm", sq + norm_sq(x_star - a_star), (1.0 + 1.0 / gamma**2) * sq),
                    (
                        "difference norm",
                        norm_sq((x - a) - (x_star - a_star)),
                        (1.0 + 1.0 / gamma) ** 2 * sq,
                    ),
                    ("key product", inner(a - x, x_star - a_star), sq / gamma),
                ):
                    _record(
                        results,
                        [_close(lhs, rhs, _pick(s, 1e-10)) for s in slacks],
                        f"{label}: {name} {lhs!r} vs {rhs!r}",
                    )
    return results


def ref_pair(rng, slacks):
    results = [SuiteResult("pair-inequality") for _ in slacks]
    for f in [catalog.make_energy(2), catalog.make_burg(), catalog.make_shannon()]:
        for _ in range(50):
            x = _domain_sample(f, rng)
            y = _domain_sample(f, rng)
            x_star = rng.normal(size=f.dim)
            y_star = rng.normal(size=f.dim)
            lhs, rhs = pair_inequality_check(f, x, x_star, y, y_star)
            _record(
                results,
                [lhs == INF or lhs >= rhs - _pick(s, 1e-9) * (1.0 + abs(rhs)) for s in slacks],
                f"{f.name} x={x.tolist()} y={y.tolist()}: lhs={lhs!r} rhs={rhs!r}",
            )

    energy = catalog.make_energy(2)
    op = subdifferential_operator(energy)
    for _ in range(20):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        lhs, rhs = pair_inequality_check(energy, x, y, y, x)
        label = f"energy equality case x={x.tolist()} y={y.tolist()}"
        member = op.graph_contains(x, x) and op.graph_contains(y, y)
        for result, slack in zip(results, slacks):
            equal = abs(lhs - rhs) <= _pick(slack, 1e-9) * (1.0 + abs(rhs))
            _record([result], [equal], f"{label}: lhs={lhs!r} rhs={rhs!r}")
            if equal:
                _record([result], [member], f"{label}: membership lost")
    return results


def ref_oracle(rng, slacks):
    results = [SuiteResult("oracle-agreement") for _ in slacks]
    for f in verify.function_entries():
        for x_star in verify.conjugate_queries(f, rng, 5):
            closed = f.conjugate(x_star)
            est = numeric_conjugate(f, x_star)
            _record(
                results,
                [
                    not est.on_boundary
                    and abs(est.value - closed) <= _pick(s, 1e-4) * (1.0 + abs(closed))
                    for s in slacks
                ],
                f"{f.name} conjugate at {x_star.tolist()}: closed={closed!r} "
                f"oracle={est.value!r} boundary={est.on_boundary}",
            )
        for gamma, z in verify.prox_queries(f, rng, 5):
            closed = f.prox(gamma, z)
            est = numeric_prox(f, gamma, z)
            err = float(np.max(np.abs(est - closed)))
            _record(
                results,
                [err <= _pick(s, 1e-5) for s in slacks],
                f"{f.name} prox gamma={gamma} z={z.tolist()}: closed={closed.tolist()} "
                f"oracle={est.tolist()} err={err!r}",
            )
    return results


REFERENCE = {
    "chain": ref_chain,
    "duality": ref_duality,
    "minty": ref_minty,
    "pair": ref_pair,
    "oracle": ref_oracle,
}


@pytest.mark.parametrize("seed", SEEDS)
def test_run_all_equals_per_point_loops(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    expected, states = [], []
    for name in SUITES:
        expected.append(REFERENCE[name](rng, SLACKS))
        states.append(rng.bit_generator.state)

    seen = []

    def tracking(suite):
        def run(rng, slack=None):
            result = suite(rng, slack)
            seen.append(rng.bit_generator.state)
            return result

        return run

    def memo(oracle_call):
        # an oracle estimate depends only on its query, not on the slack,
        # so the runs of one seed compute each estimate once
        cache = {}

        def call(f, *args):
            key = (f.name, *(np.asarray(a).tobytes() for a in args))
            if key not in cache:
                cache[key] = oracle_call(f, *args)
            return cache[key]

        return call

    for name in SUITES:
        attr = f"run_{name}_suite"
        monkeypatch.setattr(verify, attr, tracking(getattr(verify, attr)))
    for attr in ("numeric_conjugate", "numeric_prox"):
        monkeypatch.setattr(verify, attr, memo(getattr(verify, attr)))

    for k, slack in enumerate(SLACKS):
        seen.clear()
        got = verify.run_all(seed, slack)
        assert got == [per_slack[k] for per_slack in expected], f"seed {seed} slack {slack}"
        assert seen == states
        for result in got:
            assert type(result.passed) is int and type(result.failed) is int
            assert all("np." not in message for message in result.failures)


def test_zero_slack_reports_failures():
    # the comparison above is only as strong as the failures it compares
    results = verify.run_all(0, 0.0)
    assert all(result.failed > 0 and len(result.failures) == 5 for result in results[:3])


# ----------------------------------------------------- row-wise kernels


def _functions():
    return {
        "energy": catalog.make_energy(2),
        "subspace": catalog.make_subspace_indicator([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
        "burg": catalog.make_burg(),
        "shannon": catalog.make_shannon(),
    }


def _operators():
    ops = {}
    for name, f in _functions().items():
        op = subdifferential_operator(f)
        ops[name] = op
        ops[f"{name}/closed-inverse"] = op.inverse()
        ops[f"{name}/generic-inverse"] = dataclasses.replace(op, inverse_factory=None).inverse()
        bare = dataclasses.replace(f, conjugate_prox=None, conjugate_prox_kernel=None)
        assert bare.conjugate_prox_kernel is not f.conjugate_prox_kernel
        ops[f"{name}/moreau-inverse"] = subdifferential_operator(conjugate_function(bare))
    rot = catalog.make_rotator()
    ops["rotator"] = rot
    ops["rotator/closed-inverse"] = rot.inverse()
    ops["rotator/generic-inverse"] = dataclasses.replace(rot, inverse_factory=None).inverse()
    return ops


OPERATORS = _operators()


def _pairs(A, rng, m=60):
    """Random pairs, graph pairs from the resolvent, and pairs near the
    membership tolerance or past the overflow of a squared norm."""
    size = 10.0 ** rng.uniform(-3.0, 8.0, size=(m, 1))
    x = rng.normal(size=(m, A.dim)) * size
    x_star = rng.normal(size=(m, A.dim)) * size
    z = rng.normal(size=(m, A.dim)) * size
    gamma = 10.0 ** rng.uniform(-2.0, 2.0, size=(m, 1))
    a = A.resolvent_kernel(gamma, z)
    a_star = (z - a) / gamma
    nudge = 1e-9 * rng.uniform(0.5, 2.0, size=(m, 1)) * (1.0 + np.abs(a_star))
    huge = np.full((2, A.dim), 1e200)
    return (
        np.vstack((x, a, a, huge)),
        np.vstack((x_star, a_star, a_star + nudge, huge)),
    )


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_graph_kernel_rows_equal_graph_contains(name):
    A = OPERATORS[name]
    x, x_star = _pairs(A, np.random.default_rng(7))
    rows = A.graph_kernel(x, x_star)
    one = [A.graph_contains(x[i], x_star[i]) for i in range(len(x))]
    assert rows.dtype == bool and rows.tolist() == one
    assert any(one) and not all(one)


FITZPATRICK = {n: A for n, A in OPERATORS.items() if A.fitzpatrick_gap is not None}
for _name, _f in _functions().items():
    if _f.fitzpatrick_gap is not None:
        FITZPATRICK[f"{_name}/function"] = _f
        FITZPATRICK[f"{_name}/conjugate"] = conjugate_function(_f)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(FITZPATRICK))
def test_fitzpatrick_kernel_rows_equal_public_calls(name):
    entry = FITZPATRICK[name]
    A = entry if isinstance(entry, catalog.Operator) else subdifferential_operator(entry)
    x, x_star = _pairs(A, np.random.default_rng(11))
    rows = entry.fitzpatrick_gap(x, x_star)
    one = np.array([fitzpatrick_bound(entry, x[i], x_star[i]) for i in range(len(x))])
    assert rows.shape == one.shape and rows.tobytes() == one.tobytes()


# ---------------------------------------------------- shared oracle grid


def _per_query_scan(f, x_star):
    """numeric_conjugate with every round, round 0 included, scanned per query."""
    n = POINTS_PER_AXIS[f.dim]
    lows = np.full(f.dim, LO)
    highs = np.full(f.dim, HI)
    best_val, best_arg = oracle._scan_box(f, [x_star], lows, highs, n)[0]
    half_width = 0.5 * (HI - LO)
    for _ in range(REFINE_ROUNDS):
        half_width /= 10.0
        lows = np.clip(best_arg - half_width, LO, HI)
        highs = np.clip(best_arg + half_width, LO, HI)
        val, arg = oracle._scan_box(f, [x_star], lows, highs, n)[0]
        if val > best_val:
            best_val, best_arg = val, arg
    spacing = (HI - LO) / (n - 1)
    on_boundary = bool(np.any(best_arg <= LO + spacing) or np.any(best_arg >= HI - spacing))
    return best_val, best_arg, on_boundary


@pytest.mark.parametrize("name", ["energy", "subspace", "burg", "shannon"])
def test_shared_round_zero_equals_per_query_scan(name):
    f = {e.name: e for e in verify.function_entries()}[name]
    rng = np.random.default_rng(5)
    queries = verify.conjugate_queries(f, rng, 6)
    # a query whose supremum runs off the box, flagged on the boundary
    queries.append(np.full(f.dim, 60.0))
    results = numeric_conjugate(f, np.array(queries))
    assert len(results) == len(queries)
    for q, got in zip(queries, results):
        value, arg, on_boundary = _per_query_scan(f, q)
        assert got.value == value
        assert got.argmax.tobytes() == arg.tobytes()
        assert got.on_boundary is on_boundary
        one = numeric_conjugate(f, q)
        assert (one.value, one.argmax.tobytes(), one.on_boundary) == (
            got.value,
            got.argmax.tobytes(),
            got.on_boundary,
        )
    assert results[-1].on_boundary


def test_shared_round_zero_keeps_the_minus_inf_error():
    bare = dataclasses.replace(
        catalog.make_burg(), value_kernel=lambda x: np.full(x.shape[:-1], INF)[()]
    )
    with pytest.raises(ValueError, match="-inf on the entire grid"):
        numeric_conjugate(bare, np.array([[-1.0], [-2.0]]))
