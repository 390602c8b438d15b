"""The benchmark's span tracer must still find every name it patches.

``perfbench/tracer.py`` wraps module attributes by name (for example
``verify.bound_report`` and ``verify.run_chain_suite``) and raises when
one is gone.  Installing and uninstalling it here makes a refactor that
drops such a name fail the test suite, not only a traced benchmark run.
The tracer also rebuilds catalog entries with ``dataclasses.replace``, so
every public map must stay a settable field whose wrapped copy computes
the same bits.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from proxgap import bounds, catalog, core, oracle, verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = _load_tracer().Tracer()
    inverse = vars(catalog.Operator)["inverse"]
    try:
        tracer.install()
        assert verify.bound_report is not bounds.bound_report
    finally:
        tracer.uninstall()
    assert verify.bound_report is bounds.bound_report
    assert verify.numeric_conjugate is oracle.numeric_conjugate
    assert bounds.as_vector is core.as_vector
    assert vars(catalog.Operator)["inverse"] is inverse


def _bits(value):
    """A result as comparable bits: each leaf's type and bytes, records field by field."""
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return type(value), np.asarray(value).tobytes()


@pytest.mark.parametrize(
    "spec", ["energy:dim=2", "subspace:dim=3:basis=1,0,0;0,1,1", "burg", "shannon", "rotator"]
)
def test_wrapped_entries_compute_the_same_bits(spec, rng):
    tracer = _load_tracer().Tracer()
    entry = catalog.parse_spec(spec)
    op = catalog.as_operator(entry)
    operators = [op, op.inverse()]
    functions = [] if op is entry else [entry, catalog.conjugate_function(entry)]
    for _ in range(10):
        gamma = float(10.0 ** rng.uniform(-3.0, 3.0))
        x = rng.normal(size=entry.dim) * 10.0 ** rng.uniform(-2.0, 2.0)
        x_star = rng.normal(size=entry.dim) * 10.0 ** rng.uniform(-2.0, 2.0)
        for f in functions:
            want = bounds.bound_report(f, gamma, x, x_star)
            assert _bits(bounds.bound_report(tracer.wrap_entry(f), gamma, x, x_star)) == _bits(want)
        for A in operators:
            want = bounds.dual_carlier_check(A, gamma, x, x_star)
            got = bounds.dual_carlier_check(tracer.wrap_entry(A), gamma, x, x_star)
            assert _bits(got) == _bits(want), (A.name, gamma, x, x_star)
    # the public maps were wrapped as fields, and the bounds called them
    called = {tracer.names[span[1]] for span in tracer.spans}
    wanted = {f"catalog.scalar:{f.name}.prox" for f in functions}
    wanted |= {f"catalog.scalar:{A.name}.resolvent" for A in operators}
    assert wanted <= called
