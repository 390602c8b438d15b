"""Seeded randomized self-checks behind the ``verify`` CLI command.

Each suite hammers one contract (chain ordering, duality, Minty
identities, the pair inequality, oracle agreement) on reproducible
random inputs.  ``slack`` overrides every per-check tolerance at once;
it must be finite and >= 0.  Passing 0.0 is the supported way to prove
that every suite can fail.  The pair suite checks every function entry
the same way: random pairs must meet the inequality, and crossed pairs of
graph points must meet it with equality.

The suites evaluate stacks.  Each catalog entry draws its inputs in
blocks, in the order a loop over single points would draw them, maps
primal rows into dom df and dual rows into ran df by its kernels'
``domain_points``, or into gr df by ``minty_decompose`` (no suite knows a
function's sets by its name, and no chain gap or pair side is +inf),
repeats each point once per gamma of ``GAMMA_SET``, and passes the stacks
to the public ``bounds`` functions, the catalog kernels and, for the
oracle's conjugate queries, one shared grid.  The checks count and report
as a loop over single points would; a message is formatted only for a
failure that gets reported, from the rows the suite checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import bound_report, chain_links, dual_carlier_check, minty_decompose
from .bounds import pair_inequality_check
from .catalog import (
    make_burg,
    make_energy,
    make_rotator,
    make_shannon,
    make_subspace_indicator,
    subdifferential_operator,
)
from .core import INF, check_finite
from .oracle import numeric_conjugate, numeric_prox

_MAX_REPORTED = 5

GAMMA_SET = (0.01, 0.1, 1.0, 10.0, 100.0)

# oracle slacks: the conjugate relative to 1 + |f*(x*)|, the prox in the max norm
ORACLE_CONJUGATE_SLACK = 1e-4
ORACLE_PROX_SLACK = 1e-5


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return self.failed == 0

    def record(self, ok, message):
        """Record a sequence of checks, in order.

        ``ok`` holds one flag per check; ``message(i)`` formats check i
        and is called only for the failures that get reported.
        """
        ok = np.asarray(ok, dtype=bool)
        failed = np.flatnonzero(~ok)
        self.passed += ok.size - failed.size
        self.failed += failed.size
        for i in failed[: _MAX_REPORTED - len(self.failures)]:
            self.failures.append(message(int(i)))


def _pick(slack, default):
    return default if slack is None else slack


def check_slack(slack, name="slack"):
    """Raise unless ``slack`` is None or a finite float >= 0: a NaN,
    negative or infinite slack would fail or pass every check."""
    if slack is not None and not 0.0 <= slack < INF:
        raise ValueError(f"{name} must be finite and >= 0, got {slack!r}")


def function_entries():
    return [
        make_energy(2),
        make_subspace_indicator([[1.0, 0.0]]),
        make_burg(),
        make_shannon(),
    ]


def operator_entries():
    return [subdifferential_operator(f) for f in function_entries()] + [make_rotator()]


def _over_gammas(*points):
    """The ``(m,)`` gammas and each point stack repeated to match: every
    point once per gamma of ``GAMMA_SET``, point-major."""
    gamma = np.tile(GAMMA_SET, len(points[0]))
    return (gamma, *(np.repeat(p, len(GAMMA_SET), axis=0) for p in points))


def _label(name, gamma, x, x_star, r):
    return f"{name} gamma={float(gamma[r])} x={x[r].tolist()} x_star={x_star[r].tolist()}"


def _sides(lhs, rhs, r):
    return f"lhs={lhs[r].item()!r} rhs={rhs[r].item()!r}"


def run_chain_suite(rng, slack=None):
    result = SuiteResult("chain-inequality")
    s = _pick(slack, 1e-9)
    for f in function_entries():
        # normal draws are finite, and so are the points made from them
        draws = rng.normal(size=(50, 2, f.dim))
        gamma, x, x_star = _over_gammas(
            f.value_kernel.domain_points(draws[:, 0]), f.conjugate_kernel.domain_points(draws[:, 1])
        )
        rep = bound_report(f, gamma, x, x_star)
        fitz_ok, capped, nonnegative = chain_links(rep.gap, rep.fitzpatrick, rep.carlier, s)
        ok = fitz_ok & capped & nonnegative

        def message(r):
            fitz = rep.fitzpatrick if rep.fitzpatrick is None else rep.fitzpatrick[r].item()
            return (
                f"{_label(f.name, gamma, x, x_star, r)}: "
                f"gap={rep.gap[r].item()!r} fitz={fitz!r} carlier={rep.carlier[r].item()!r}"
            )

        result.record(ok, message)
    return result


def run_duality_suite(rng, slack=None):
    result = SuiteResult("duality")
    s = _pick(slack, 1e-10)
    for A in operator_entries():
        draws = rng.normal(size=(40, 2, A.dim))
        gamma, x, x_star = _over_gammas(draws[:, 0], draws[:, 1])
        lhs, rhs = dual_carlier_check(A, gamma, x, x_star)
        ok = np.abs(lhs - rhs) <= s * (1.0 + np.abs(lhs))

        def message(r):
            return f"{_label(A.name, gamma, x, x_star, r)}: {_sides(lhs, rhs, r)}"

        result.record(ok, message)
    return result


def _close(lhs, rhs, s):
    return np.abs(lhs - rhs) <= s * (1.0 + np.abs(lhs) + np.abs(rhs))


def run_minty_suite(rng, slack=None):
    result = SuiteResult("minty-identities")
    s_exact = _pick(slack, 1e-12)
    s_rel = _pick(slack, 1e-10)
    # the gamma factors as Python floats, as a per-point check computes them
    joint = np.tile([1.0 + 1.0 / g**2 for g in GAMMA_SET], 20)
    difference = np.tile([(1.0 + 1.0 / g) ** 2 for g in GAMMA_SET], 20)
    for A in operator_entries():
        draws = rng.normal(size=(20, 2, A.dim))
        gamma, x, x_star = _over_gammas(draws[:, 0], draws[:, 1])
        pair = minty_decompose(A, gamma, x, x_star)
        a, a_star = check_finite(pair.a, "a"), check_finite(pair.a_star, "a_star")
        z = x + gamma[:, None] * x_star

        m3 = np.max(np.abs(z - (a + gamma[:, None] * a_star)), axis=1)
        d, e = x - a, x_star - a_star
        sq = np.vecdot(d, d)
        identities = (
            ("joint norm", sq + np.vecdot(e, e), joint * sq),
            ("difference norm", np.vecdot(d - e, d - e), difference * sq),
            ("key product", np.vecdot(a - x, e), sq / gamma),
        )
        ok = np.column_stack(
            [A.graph_kernel(a, a_star), m3 <= s_exact]
            + [_close(lhs, rhs, s_rel) for _, lhs, rhs in identities]
        )

        def message(i):
            r, check = divmod(i, ok.shape[1])
            label = _label(A.name, gamma, x, x_star, r)
            if check == 0:
                return f"{label}: (a, a*) not in graph"
            if check == 1:
                return f"{label}: reassembly error {float(m3[r])!r}"
            name, lhs, rhs = identities[check - 2]
            return f"{label}: {name} {float(lhs[r])!r} vs {float(rhs[r])!r}"

        result.record(ok.ravel(), message)
    return result


def run_pair_suite(rng, slack=None):
    result = SuiteResult("pair-inequality")
    s = _pick(slack, 1e-9)
    for f in function_entries():
        draws = rng.normal(size=(50, 4, f.dim))
        x, y = map(f.value_kernel.domain_points, (draws[:, 0], draws[:, 1]))
        x_star, y_star = map(f.conjugate_kernel.domain_points, (draws[:, 2], draws[:, 3]))
        lhs, rhs = pair_inequality_check(f, x, x_star, y, y_star)
        ok = lhs >= rhs - s * (1.0 + np.abs(rhs))

        def message(r):
            return f"{f.name} x={x[r].tolist()} y={y[r].tolist()}: {_sides(lhs, rhs, r)}"

        result.record(ok, message)

        # the equality case: (a, a*) and (b, b*), the Minty pairs of two
        # normal draws, lie in gr df, so the crossed pair (a, b*), (b, a*)
        # meets the inequality with equality
        A = subdifferential_operator(f)
        draws = rng.normal(size=(40, 2, f.dim))
        pair = minty_decompose(A, 1.0, draws[:, 0], draws[:, 1])
        member = A.graph_kernel(pair.a, pair.a_star)
        a, b, a_star, b_star = pair.a[::2], pair.a[1::2], pair.a_star[::2], pair.a_star[1::2]
        lhs, rhs = pair_inequality_check(f, a, b_star, b, a_star)

        def label(r):
            return f"{f.name} equality case x={a[r].tolist()} y={b[r].tolist()}"

        equal = np.abs(lhs - rhs) <= s * (1.0 + np.abs(rhs))
        result.record(equal, lambda r: f"{label(r)}: {_sides(lhs, rhs, r)}")
        result.record(member[::2] & member[1::2], lambda r: f"{label(r)}: membership lost")
    return result


def conjugate_queries(f, rng, count):
    """``(count, dim)`` points of ran df, where f* is finite and its maximizer interior
    to the oracle box: ``f.conjugate_kernel.domain_points`` of uniform draws on (-2, 1)."""
    return f.conjugate_kernel.domain_points(rng.uniform(-2.0, 1.0, size=(count, f.dim)))


def prox_queries(f, rng, count):
    gammas = (0.1, 1.0, 10.0)
    return [(gammas[i % len(gammas)], rng.uniform(-5.0, 5.0, size=f.dim)) for i in range(count)]


def oracle_comparison(f, rng, count, slack=None):
    """``count`` conjugate, then ``count`` prox queries from rng: rows
    (x*, f*(x*), GridMax, |oracle - closed|, ok) and (gamma, z, closed prox,
    oracle prox, max-norm error, ok).  A conjugate is ok when the oracle's
    incumbent is off the box boundary and its delta is <= slack * (1 + |closed|),
    a prox when its error is <= slack; ``slack`` overrides both defaults."""
    check_slack(slack)
    s_conj = _pick(slack, ORACLE_CONJUGATE_SLACK)
    s_prox = _pick(slack, ORACLE_PROX_SLACK)
    queries = conjugate_queries(f, rng, count)
    closed = f.conjugate_kernel(queries).tolist()
    conj = []
    for q, c, e in zip(queries, closed, numeric_conjugate(f, queries)):
        delta = abs(e.value - c)
        conj.append((q, c, e, delta, not e.on_boundary and delta <= s_conj * (1.0 + abs(c))))
    proxes = []
    for gamma, z in prox_queries(f, rng, count):
        closed_p = f.prox(gamma, z)
        est_p = numeric_prox(f, gamma, z)
        err = float(np.max(np.abs(est_p - closed_p)))
        proxes.append((gamma, z, closed_p, est_p, err, err <= s_prox))
    return conj, proxes


def run_oracle_suite(rng, slack=None):
    result = SuiteResult("oracle-agreement")
    for f in function_entries():
        conj, proxes = oracle_comparison(f, rng, 5, slack)

        def conj_message(i):
            x_star, closed, est, _, _ = conj[i]
            return (
                f"{f.name} conjugate at {x_star.tolist()}: closed={closed!r} "
                f"oracle={est.value!r} boundary={est.on_boundary}"
            )

        def prox_message(i):
            gamma, z, closed, est, err, _ = proxes[i]
            return (
                f"{f.name} prox gamma={gamma} z={z.tolist()}: closed={closed.tolist()} "
                f"oracle={est.tolist()} err={err!r}"
            )

        result.record([row[-1] for row in conj], conj_message)
        result.record([row[-1] for row in proxes], prox_message)
    return result


def run_all(seed=42, slack=None):
    check_slack(slack)
    rng = np.random.default_rng(seed)
    return [
        run_chain_suite(rng, slack),
        run_duality_suite(rng, slack),
        run_minty_suite(rng, slack),
        run_pair_suite(rng, slack),
        run_oracle_suite(rng, slack),
    ]
