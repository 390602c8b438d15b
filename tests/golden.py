"""Golden records of the verify suites and the grid oracles.

``tests/data/verify_records.json`` holds, for each seed of ``SEEDS`` and
slack of ``SLACKS``, ``repr(run_all(seed, slack))`` and the generator's
state after each of the five suites.  ``tests/data/oracle_records.json``
holds queries and the oracles' answers to them, all as ``float.hex``:
the verify entries' queries for each seed, random prox queries, a
boundary stack and the round-0 stacks.  The records were first written
by the per-point suite loops and the per-query oracles that the stacked
code replaced; the tests compare the current code with them exactly.

Each file maps a case name to its record.  A test builds the record of
its case and compares ``dumps`` of it with ``dumps`` of the stored one;
``test_record_files_are_what_golden_writes`` checks each file's text and
order of cases.  After a deliberate change of a record, rewrite both
files with

    PYTHONPATH=src python tests/golden.py

which prints, for each file, the name of every case whose record text
changed, and list those cases in CHANGES.md.  Nothing else writes them.
"""

import json
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np

from proxgap import catalog, verify
from proxgap.oracle import numeric_conjugate, numeric_prox

DATA = Path(__file__).resolve().parent / "data"
VERIFY_RECORDS = DATA / "verify_records.json"
ORACLE_RECORDS = DATA / "oracle_records.json"

SEEDS = range(20)
SLACKS = (None, 0.0, 1e-13)
SUITES = ("chain", "duality", "minty", "pair", "oracle")

PROX_ENTRIES = {
    "energy1": partial(catalog.make_energy, 1),
    "energy3": partial(catalog.make_energy, 3),
    "subspace3": partial(catalog.make_subspace_indicator, [[1.0, 2.0, 0.5]]),
}
ENTRY_NAMES = tuple(f.name for f in verify.function_entries())
BOUNDARY_STACK = np.array([[60.0, 0.0], [1.0, -2.0], [60.0, 0.0]])


def dumps(records):
    return json.dumps(records, indent=1) + "\n"


def load(path):
    return json.loads(path.read_text())


def assert_record(path, case, record):
    got, stored = dumps(record), dumps(load(path)[case])
    assert got == stored, f"{path.name}: {case}"


def entry(name):
    return {f.name: f for f in verify.function_entries()}[name]


def fields(result):
    """A GridMax as a tuple that compares its bits."""
    return (result.value, result.argmax.tobytes(), result.on_boundary)


# ------------------------------------------------------------- verify runs


@contextmanager
def _observed():
    """Patch ``verify`` so that each suite appends the generator's state to
    the yielded list after it runs, and each oracle estimate is computed
    once: it depends only on its query, not on the slack, so the runs of
    one seed share it."""
    states = []

    def tracking(suite):
        def run(rng, slack=None):
            result = suite(rng, slack)
            states.append(rng.bit_generator.state)
            return result

        return run

    def memo(oracle_call):
        cache = {}

        def call(f, *args):
            key = (f.name, *(np.asarray(a).tobytes() for a in args))
            if key not in cache:
                cache[key] = oracle_call(f, *args)
            return cache[key]

        return call

    with ExitStack() as patches:
        for name in SUITES:
            attr = f"run_{name}_suite"
            patches.enter_context(mock.patch.object(verify, attr, tracking(getattr(verify, attr))))
        for attr in ("numeric_conjugate", "numeric_prox"):
            patches.enter_context(mock.patch.object(verify, attr, memo(getattr(verify, attr))))
        yield states


def verify_record(seed):
    """One run of ``run_all(seed, slack)`` per slack.  Counts must be
    Python ints and messages must show no numpy repr, or the record would
    pin them."""
    runs = []
    with _observed() as states:
        for slack in SLACKS:
            states.clear()
            results = verify.run_all(seed, slack)
            for result in results:
                assert type(result.passed) is int and type(result.failed) is int
                assert all("np." not in message for message in result.failures)
            runs.append({"slack": slack, "results": repr(results), "states": states[:]})
    return runs


# ----------------------------------------------------------- oracle queries


def _hex(v):
    return [float.hex(c) for c in np.ravel(v).tolist()]


def conjugates(stack, results):
    """The query and every GridMax field of each result of a stack."""
    return [
        {
            "x_star": _hex(q),
            "value": float.hex(r.value),
            "argmax": _hex(r.argmax),
            "on_boundary": r.on_boundary,
        }
        for q, r in zip(stack, results)
    ]


def stack_record(f, stack):
    return conjugates(stack, numeric_conjugate(f, stack))


def proxes(f, queries):
    return [
        {"gamma": float.hex(gamma), "z": _hex(z), "prox": _hex(numeric_prox(f, gamma, z))}
        for gamma, z in queries
    ]


def verify_queries(seed):
    """Each verify entry's five conjugate queries, as one stack, then its
    five prox queries, all from one generator of ``seed``."""
    rng = np.random.default_rng(seed)
    record = {}
    for f in verify.function_entries():
        stack = np.reshape(verify.conjugate_queries(f, rng, 5), (-1, f.dim))
        conj = stack_record(f, stack)
        record[f.name] = {"conjugates": conj, "proxes": proxes(f, verify.prox_queries(f, rng, 5))}
    return record


def random_proxes(name):
    f = PROX_ENTRIES[name]()
    rng = np.random.default_rng(17)
    queries = [(10.0 ** rng.uniform(-2.0, 2.0), rng.uniform(-5.0, 5.0, f.dim)) for _ in range(8)]
    return proxes(f, queries)


def round_zero_stack(f):
    """Six verify conjugate queries and one whose supremum runs off the box."""
    queries = verify.conjugate_queries(f, np.random.default_rng(5), 6)
    return np.vstack((queries, np.full(f.dim, 60.0)))


def round_zero(name):
    f = entry(name)
    return stack_record(f, round_zero_stack(f))


# ------------------------------------------------------------------ files

CASES = {
    VERIFY_RECORDS: {f"seed {seed}": partial(verify_record, seed) for seed in SEEDS},
    ORACLE_RECORDS: {
        **{f"verify seed {seed}": partial(verify_queries, seed) for seed in SEEDS},
        **{f"random prox {name}": partial(random_proxes, name) for name in PROX_ENTRIES},
        "boundary": lambda: stack_record(catalog.make_energy(2), BOUNDARY_STACK),
        **{f"round zero {name}": partial(round_zero, name) for name in ENTRY_NAMES},
    },
}


def rewrite(path, cases):
    """Write the records of ``cases`` to ``path`` and return the names of the
    cases whose record text changed, added or dropped ones included."""
    old = load(path) if path.exists() else {}
    new = {case: build() for case, build in cases.items()}
    path.write_text(dumps(new))
    return [case for case in {**old, **new} if dumps(old.get(case)) != dumps(new.get(case))]


if __name__ == "__main__":
    for path, cases in CASES.items():
        for case in rewrite(path, cases):
            print(f"{path.name}: {case}")
