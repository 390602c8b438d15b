"""The stacked verify suites and the shared oracle grid, against golden records.

``run_all`` must give, for seeds 0-19 at three slacks, the SuiteResults
(counts and byte-identical failure messages) and the generator states
after each suite that ``tests/data/verify_records.json`` holds.  The
per-point suites wrote the first records: plain loops over the public API
that drew one point at a time and formatted a message for every check;
``golden.py`` rewrites them after a deliberate change.  The stacked
conjugate oracle must likewise give the per-query scans' answers in
``tests/data/oracle_records.json`` (see ``golden.py``).  The row-wise
Fitzpatrick and graph kernels, the stacked ``bounds`` calls the suites make,
and the shared round-0 grid of ``numeric_conjugate``, must equal their
one-point calls bit for bit.
"""

import dataclasses

import golden
import numpy as np
import pytest
from conftest import resolvent_paths

from proxgap import catalog, verify
from proxgap.bounds import (
    bound_report,
    carlier_bound,
    dual_carlier_check,
    fitzpatrick_bound,
    minty_decompose,
)
from proxgap.catalog import conjugate_function, subdifferential_operator
from proxgap.core import INF
from proxgap.oracle import numeric_conjugate


@pytest.mark.parametrize("seed", golden.SEEDS)
def test_run_all_equals_per_point_loops(seed):
    golden.assert_record(golden.VERIFY_RECORDS, f"seed {seed}", golden.verify_record(seed))


@pytest.mark.parametrize("path", list(golden.CASES), ids=lambda path: path.name)
def test_record_files_are_what_golden_writes(path):
    # with the comparisons of each case, the file is what golden.py writes
    records = golden.load(path)
    assert list(records) == list(golden.CASES[path])
    assert golden.dumps(records) == path.read_text()


def test_zero_slack_reports_failures():
    # the records are only as strong as the failures they pin: at slack 0
    # every suite fails and reports five messages
    for seed in (0, 7):
        results = verify.run_all(seed, 0.0)
        for result in results:
            assert result.failed > 0 and len(result.failures) == 5
        assert results[-1].failed == 30


def test_chain_and_pair_rows_test_finite_sides(monkeypatch):
    # x* and y* are drawn into ran df, where f* is finite, so no chain row
    # has gap = +inf and no pair row lhs = +inf: such a row passes untested
    gaps, lhs = [], []

    def recording(call, rows, side):
        def run(f, *args):
            out = call(f, *args)
            if np.ndim(args[-1]) == 2:  # the suite's stack, not a failure message
                rows.append(side(out))
            return out

        return run

    bound_report_rows = recording(verify.bound_report, gaps, lambda rep: rep.gap)
    pair_rows = recording(verify.pair_inequality_check, lhs, lambda sides: sides[0])
    monkeypatch.setattr(verify, "bound_report", bound_report_rows)
    monkeypatch.setattr(verify, "pair_inequality_check", pair_rows)
    for seed in golden.SEEDS:
        verify.run_all(seed)
    gaps, lhs = np.concatenate(gaps), np.concatenate(lhs)
    # 4 entries x 50 points x 5 gammas, and 4 x (50 random + 20 crossed graph) pairs
    assert (gaps.size, lhs.size) == (1000 * len(golden.SEEDS), 280 * len(golden.SEEDS))
    assert (int(np.count_nonzero(gaps == INF)), int(np.count_nonzero(lhs == INF))) == (0, 0)


# ----------------------------------------------------- row-wise kernels


def _functions():
    return {
        "energy": catalog.make_energy(2),
        "subspace": catalog.make_subspace_indicator([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
        "burg": catalog.make_burg(),
        "shannon": catalog.make_shannon(),
    }


OPERATORS = resolvent_paths(_functions())


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


# ------------------------------------------------ stacked bounds calls


def _assert_rows(stacked, one):
    """Row i of ``stacked`` has the dtype and bytes of the one-point result i."""
    want = np.array(one)
    assert stacked.dtype == want.dtype and stacked.shape == want.shape
    assert stacked.tobytes() == want.tobytes()


def _row_gammas(rng, m):
    # an (m,) gamma per row, and one float for the whole stack
    return 10.0 ** rng.uniform(-2.0, 2.0, size=m), 0.5


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_stacked_duality_carlier_and_minty_rows_equal_one_point_calls(name):
    A = OPERATORS[name]
    rng = np.random.default_rng(17)
    x, x_star = _pairs(A, rng)
    for gamma in _row_gammas(rng, len(x)):
        g = np.broadcast_to(gamma, len(x)).tolist()
        lhs, rhs = dual_carlier_check(A, gamma, x, x_star)
        one = [dual_carlier_check(A, g[i], x[i], x_star[i]) for i in range(len(x))]
        assert all(type(v) is float for pair in one for v in pair)
        _assert_rows(lhs, [v for v, _ in one])
        _assert_rows(rhs, [v for _, v in one])
        _assert_rows(
            carlier_bound(A, gamma, x, x_star),
            [carlier_bound(A, g[i], x[i], x_star[i]) for i in range(len(x))],
        )
        pair = minty_decompose(A, gamma, x, x_star)
        one = [minty_decompose(A, g[i], x[i], x_star[i]) for i in range(len(x))]
        _assert_rows(pair.gamma, [p.gamma for p in one])
        _assert_rows(pair.a, [p.a for p in one])
        _assert_rows(pair.a_star, [p.a_star for p in one])


REPORT_FUNCTIONS = _functions()
for _name, _f in _functions().items():
    REPORT_FUNCTIONS[f"{_name}/conjugate"] = conjugate_function(_f)

# the type of each one-point report field; the rest are Python floats
FIELD_TYPES = {"x": np.ndarray, "x_star": np.ndarray, "gap_zero": bool, "gap_equals_carlier": bool}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(REPORT_FUNCTIONS))
def test_stacked_bound_report_rows_equal_one_point_reports(name):
    f = REPORT_FUNCTIONS[name]
    rng = np.random.default_rng(19)
    x, x_star = _pairs(subdifferential_operator(f), rng)
    for gamma in _row_gammas(rng, len(x)):
        g = np.broadcast_to(gamma, len(x)).tolist()
        rep = bound_report(f, gamma, x, x_star)
        one = [bound_report(f, g[i], x[i], x_star[i]) for i in range(len(x))]
        for field in dataclasses.fields(rep):
            got, want = getattr(rep, field.name), [getattr(r, field.name) for r in one]
            if field.name == "fitzpatrick" and f.fitzpatrick_gap is None:
                assert got is None and want == [None] * len(x)
                continue
            assert all(type(w) is FIELD_TYPES.get(field.name, float) for w in want)
            _assert_rows(got, want)
        assert any(r.gap_zero for r in one) and not all(r.gap_zero for r in one)


# ---------------------------------------------------- shared oracle grid


@pytest.mark.parametrize("name", golden.ENTRY_NAMES)
def test_shared_round_zero_equals_golden_records(name):
    f = golden.entry(name)
    stack = golden.round_zero_stack(f)
    results = numeric_conjugate(f, stack)
    record = golden.conjugates(stack, results)
    golden.assert_record(golden.ORACLE_RECORDS, f"round zero {name}", record)
    for q, got in zip(stack, results):
        assert golden.fields(numeric_conjugate(f, q)) == golden.fields(got)
    assert results[-1].on_boundary


def test_shared_round_zero_keeps_the_minus_inf_error():
    bare = dataclasses.replace(
        catalog.make_burg(), value_kernel=lambda x: np.full(x.shape[:-1], INF)[()]
    )
    with pytest.raises(ValueError, match="-inf on the entire grid"):
        numeric_conjugate(bare, np.array([[-1.0], [-2.0]]))
