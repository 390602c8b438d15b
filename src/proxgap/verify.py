"""Seeded randomized self-checks behind the ``verify`` CLI command.

Each suite hammers one contract (chain ordering, duality, Minty
identities, the pair inequality, oracle agreement) on reproducible
random inputs.  ``slack`` overrides every per-check tolerance at once;
it must be finite and >= 0.  Passing 0.0 is the supported way to prove
that the chain, duality, Minty and oracle suites can fail.  The pair
suite passes at 0.0: its random pairs meet the inequality outright, and
its energy cross-graph pairs compute both sides as the same bits.

The suites evaluate stacks.  Each catalog entry draws all of its inputs
as one block, in the order a loop over single points would draw them,
repeats each point once per gamma of ``GAMMA_SET``, and passes the stacks
to the public ``bounds`` functions, the catalog kernels and, for the
oracle's conjugate queries, one shared grid.  Every check of the per-point
loops is kept, so the counts and the failure messages are theirs; a message
is formatted only for a failure that gets reported, from the one-point call
where there is one.
"""

from __future__ import annotations

import math
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
from .core import INF, check_finite, row_norm
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


def _domain_points(f, draws):
    """Points of dom f from standard normal draws, row by row."""
    if f.name == "energy":
        return draws
    if f.name == "subspace":
        return f.prox_kernel(1.0, draws)
    return np.abs(draws) + 0.1


def _over_gammas(*points):
    """The ``(m,)`` gammas and each point stack repeated to match: every
    point once per gamma of ``GAMMA_SET``, point-major."""
    gamma = np.tile(GAMMA_SET, len(points[0]))
    return (gamma, *(np.repeat(p, len(GAMMA_SET), axis=0) for p in points))


def _label(name, gamma, x, x_star, r):
    return f"{name} gamma={float(gamma[r])} x={x[r].tolist()} x_star={x_star[r].tolist()}"


def run_chain_suite(rng, slack=None):
    result = SuiteResult("chain-inequality")
    s = _pick(slack, 1e-9)
    for f in function_entries():
        # normal draws are finite, and so are the points made from them
        draws = rng.normal(size=(50, 2, f.dim))
        gamma, x, x_star = _over_gammas(_domain_points(f, draws[:, 0]), draws[:, 1])
        rep = bound_report(f, gamma, x, x_star)
        fitz_ok, capped, nonnegative = chain_links(rep.gap, rep.fitzpatrick, rep.carlier, s)
        ok = fitz_ok & capped & nonnegative

        def message(r):
            rep = bound_report(f, gamma[r], x[r], x_star[r])
            return (
                f"{_label(f.name, gamma, x, x_star, r)}: "
                f"gap={rep.gap!r} fitz={rep.fitzpatrick!r} carlier={rep.carlier!r}"
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
            lhs_r, rhs_r = dual_carlier_check(A, gamma[r], x[r], x_star[r])
            return f"{_label(A.name, gamma, x, x_star, r)}: lhs={lhs_r!r} rhs={rhs_r!r}"

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
    for f in [make_energy(2), make_burg(), make_shannon()]:
        draws = rng.normal(size=(50, 4, f.dim))
        x, y = _domain_points(f, draws[:, 0]), _domain_points(f, draws[:, 1])
        x_star, y_star = draws[:, 2], draws[:, 3]
        lhs = f.gap_kernel(x, x_star) + f.gap_kernel(y, y_star)
        rhs = np.vecdot(y - x, x_star - y_star)
        ok = (lhs == INF) | (lhs >= rhs - s * (1.0 + np.abs(rhs)))

        def message(r):
            lhs_r, rhs_r = pair_inequality_check(f, x[r], x_star[r], y[r], y_star[r])
            return f"{f.name} x={x[r].tolist()} y={y[r].tolist()}: lhs={lhs_r!r} rhs={rhs_r!r}"

        result.record(ok, message)

    # cross-graph points of the energy: y* = x and x* = y force equality,
    # and equality must certify both graph memberships
    energy = make_energy(2)
    op = subdifferential_operator(energy)
    draws = rng.normal(size=(20, 2, 2))
    x, y = draws[:, 0], draws[:, 1]
    lhs = energy.gap_kernel(x, y) + energy.gap_kernel(y, x)
    rhs = np.vecdot(y - x, y - x)
    equal = np.abs(lhs - rhs) <= s * (1.0 + np.abs(rhs))
    member = op.graph_kernel(x, x) & op.graph_kernel(y, y)

    def label(r):
        return f"energy equality case x={x[r].tolist()} y={y[r].tolist()}"

    def unequal(r):
        lhs_r, rhs_r = pair_inequality_check(energy, x[r], y[r], y[r], x[r])
        return f"{label(r)}: lhs={lhs_r!r} rhs={rhs_r!r}"

    # member holds on every row (energy's gap at (x, x) is 0): no report moves
    rows = np.flatnonzero(equal)
    result.record(equal, unequal)
    result.record(member[rows], lambda i: f"{label(rows[i])}: membership lost")
    return result


def conjugate_queries(f, rng, count):
    """Query points where the closed-form conjugate is finite and the
    maximizer is interior to the oracle box.  For a subspace U this is
    the U-perp part of u times the last axis or, when that axis lies in U,
    the axis with the largest U-perp part."""
    out = []
    if f.name == "subspace":
        axes = np.eye(f.dim)
        axis = f.dim - 1
        if f.subdiff_domain.contains(axes[axis]):
            axis = int(np.argmax(row_norm(axes - f.prox_kernel(1.0, axes))))
    for _ in range(count):
        if f.name == "energy":
            out.append(rng.uniform(-3.0, 3.0, size=f.dim))
        elif f.name == "subspace":
            q = np.zeros(f.dim)
            q[axis] = rng.uniform(-5.0, 5.0)
            out.append(q - f.prox_kernel(1.0, q))
        elif f.name == "burg":
            out.append(np.array([-math.exp(rng.uniform(-2.0, 1.0))]))
        else:
            out.append(np.array([rng.uniform(-3.0, 3.0)]))
    return out


def prox_queries(f, rng, count):
    gammas = (0.1, 1.0, 10.0)
    return [(gammas[i % len(gammas)], rng.uniform(-5.0, 5.0, size=f.dim)) for i in range(count)]


def oracle_comparison(f, rng, count, slack=None):
    """``count`` conjugate, then ``count`` prox queries from rng: rows
    (x*, f*(x*), GridMax, ok) and (gamma, z, closed prox, oracle prox,
    max-norm error, ok).  A conjugate is ok when the oracle's incumbent is
    off the box boundary and |oracle - closed| <= slack * (1 + |closed|),
    a prox when its error is <= slack; ``slack`` overrides both defaults."""
    check_slack(slack)
    s_conj = _pick(slack, ORACLE_CONJUGATE_SLACK)
    s_prox = _pick(slack, ORACLE_PROX_SLACK)
    queries = conjugate_queries(f, rng, count)
    closed = [f.conjugate(x_star) for x_star in queries]
    est = numeric_conjugate(f, np.reshape(queries, (-1, f.dim)))
    conj = [
        (q, c, e, not e.on_boundary and abs(e.value - c) <= s_conj * (1.0 + abs(c)))
        for q, c, e in zip(queries, closed, est)
    ]
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
            x_star, closed, est, _ = conj[i]
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
