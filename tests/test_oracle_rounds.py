"""Golden-record and work-count tests of the grid oracles.

``numeric_conjugate`` runs a stack round by round and evaluates f once
per distinct refinement box; ``numeric_prox`` skips a coordinate search
that could only repeat the last one on its axis.  Both oracles must give,
bit for bit, the answers in ``tests/data/oracle_records.json``, which
the plain forms wrote: every query refined on its own boxes, and every
sweep searched until it moves less than 1e-12 (see ``golden.py``).  And
they must do the smaller amount of work that the shortcuts promise.
"""

import dataclasses

import golden
import numpy as np
import pytest

from proxgap import verify
from proxgap.oracle import REFINE_ROUNDS, numeric_conjugate, numeric_prox

# ------------------------------------------------------- golden records


@pytest.mark.parametrize("seed", golden.SEEDS)
def test_verify_queries_equal_reference(seed):
    golden.assert_record(golden.ORACLE_RECORDS, f"verify seed {seed}", golden.verify_queries(seed))


@pytest.mark.parametrize("name", list(golden.PROX_ENTRIES))
def test_random_prox_queries_equal_reference(name):
    golden.assert_record(golden.ORACLE_RECORDS, f"random prox {name}", golden.random_proxes(name))


def test_boundary_query_equals_reference(energy2):
    stack = golden.BOUNDARY_STACK
    results = numeric_conjugate(energy2, stack)
    golden.assert_record(golden.ORACLE_RECORDS, "boundary", golden.conjugates(stack, results))
    for q, got in zip(stack, results):
        assert golden.fields(numeric_conjugate(energy2, q)) == golden.fields(got)
    assert numeric_conjugate(energy2, np.array([60.0, 0.0])).on_boundary


# ------------------------------------------------------------ work count


def _counting(f, rows):
    """f with a value kernel that counts its calls on ``rows`` points."""
    calls = []

    def value_kernel(x):
        if np.ndim(x) == 2 and len(x) == rows:
            calls.append(len(x))
        return f.value_kernel(x)

    return dataclasses.replace(f, value_kernel=value_kernel), calls


@pytest.mark.parametrize("name, grids, query_major", [("subspace", 4, 16), ("energy", 16, 16)])
def test_conjugate_stack_grid_evaluations(name, grids, query_major):
    # the subspace queries (0, t) all tie to the incumbent (0, 0), so their
    # refinement boxes coincide in every round; the energy queries share
    # none, and scan the grids of refining each query on its own boxes
    f = golden.entry(name)
    stack = np.reshape(verify.conjugate_queries(f, np.random.default_rng(1), 5), (-1, 2))
    counted, calls = _counting(f, 201**2)
    numeric_conjugate(counted, stack)
    assert len(calls) == grids <= query_major == 1 + len(stack) * REFINE_ROUNDS


def test_one_dimensional_conjugate_scans_20001_points_per_round(burg):
    counted, calls = _counting(burg, 20001)
    numeric_conjugate(counted, np.array([-1.0]))
    assert len(calls) == 1 + REFINE_ROUNDS


@pytest.mark.parametrize("name", ["burg", "shannon"])
def test_one_dimensional_prox_scans_its_line_once(name):
    f = golden.entry(name)
    counted, calls = _counting(f, 1001)
    for gamma, z in verify.prox_queries(f, np.random.default_rng(2), 5):
        numeric_prox(counted, gamma, z)
        assert len(calls) == 1
        calls.clear()
