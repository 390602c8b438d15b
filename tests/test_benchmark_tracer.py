"""The benchmark's span tracer must still find every name it patches.

``perfbench/tracer.py`` wraps module attributes by name (for example
``verify.bound_report`` and ``verify.run_chain_suite``) and raises when
one is gone.  Installing and uninstalling it here makes a refactor that
drops such a name fail the test suite, not only a traced benchmark run.
"""

import importlib.util
from pathlib import Path

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
