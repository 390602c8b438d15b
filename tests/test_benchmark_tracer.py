"""The benchmark's span tracer must still find every name it patches.

``perfbench/tracer.py`` wraps module attributes by name (for example
``verify.bound_report`` and ``verify.run_chain_suite``) and raises when
one is gone.  Installing and uninstalling it here makes a refactor that
drops such a name fail the test suite, not only a traced benchmark run.
The tracer also rebuilds catalog entries with ``dataclasses.replace``, so
every public map must stay a settable field whose wrapped copy computes
the same bits, and a wrapped kernel keeps the facts the bounds and the
cyclic series read from it, so that a traced run takes the untraced route.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from conftest import bits

from proxgap import bounds, catalog, core, cyclic, oracle, verify

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
            assert bits(bounds.bound_report(tracer.wrap_entry(f), gamma, x, x_star)) == bits(want)
        for A in operators:
            want = bounds.dual_carlier_check(A, gamma, x, x_star)
            got = bounds.dual_carlier_check(tracer.wrap_entry(A), gamma, x, x_star)
            assert bits(got) == bits(want), (A.name, gamma, x, x_star)
    # a wrapped value or conjugate kernel keeps its map of raw rows into its set
    u = rng.uniform(-100.0, 100.0, size=(4, entry.dim))
    for f in functions:
        wrapped = tracer.wrap_entry(f)
        sides = (("value_kernel", "subdiff_domain"), ("conjugate_kernel", "subdiff_range"))
        for name, member in sides:
            kernel = getattr(wrapped, name)
            assert kernel is not getattr(f, name)
            for raw in (u, u[0]):
                points = kernel.domain_points(raw)
                assert bits(points) == bits(getattr(f, name).domain_points(raw))
                assert all(getattr(wrapped, member).contains(row) for row in np.atleast_2d(points))
                assert np.all(np.isfinite(kernel(points)))
    # the public maps were wrapped as fields, and the bounds called them
    called = {tracer.names[span[1]] for span in tracer.spans}
    wanted = {f"catalog.scalar:{f.name}.prox" for f in functions}
    wanted |= {f"catalog.scalar:{A.name}.resolvent" for A in operators}
    assert wanted <= called


@pytest.mark.parametrize("spec", ["burg", "shannon", "rotator", "energy:dim=1", "energy:dim=3"])
def test_wrapped_series_steps_through_the_formula(spec, rng):
    # a wrapped resolvent kernel keeps its formula, which the series calls on
    # Python floats in place of the kernel, as for the bare entry
    tracer = _load_tracer().Tracer()
    op = catalog.as_operator(catalog.parse_spec(spec))
    for A in (op, op.inverse()):
        wrapped = tracer.wrap_entry(A)
        assert wrapped.resolvent_kernel is not A.resolvent_kernel
        for _ in range(4):
            x = rng.normal(size=A.dim) * 10.0 ** rng.uniform(-2.0, 2.0)
            x_star = rng.normal(size=A.dim) * 10.0 ** rng.uniform(-2.0, 2.0)
            schedule = cyclic.GammaSchedule.const(10.0 ** rng.uniform(-2.0, 2.0))
            want = cyclic.generate_cyclic_sequence(A, x, x_star, schedule, 200)
            got = cyclic.generate_cyclic_sequence(wrapped, x, x_star, schedule, 200)
            assert bits(got) == bits(want)
    assert [tracer.names[span[1]] for span in tracer.spans] == []


def test_wrapped_subspace_report_reuses_its_gap(rng):
    # the subspace's Fitzpatrick gap is marked as its gap, and a wrapper keeps
    # the mark, so a traced report calls the prox and the gap kernel only
    tracer = _load_tracer().Tracer()
    f = catalog.parse_spec("subspace:dim=3:basis=1,0,0;0,1,1")
    wrapped = tracer.wrap_entry(f)
    u, u_perp = np.array([1.0, 2.0, 2.0]), np.array([0.0, 1.0, -1.0])
    for x, x_star in ((u, u_perp), (u, u), rng.normal(size=(2, 3))):
        tracer.spans.clear()
        want = bounds.bound_report(f, 0.5, x, x_star)
        assert bits(bounds.bound_report(wrapped, 0.5, x, x_star)) == bits(want)
        called = [tracer.names[span[1]] for span in tracer.spans]
        assert called == ["catalog.scalar:subspace.prox", "catalog.scalar:subspace.gap_kernel"]


def test_wrapped_conjugate_subspace_report_reuses_its_gap(rng):
    # the conjugate's swapped Fitzpatrick gap keeps the subspace's mark, so its
    # traced report, too, calls the prox and the gap kernel only
    tracer = _load_tracer().Tracer()
    f = catalog.conjugate_function(catalog.parse_spec("subspace:dim=3:basis=1,0,0;0,1,1"))
    wrapped = tracer.wrap_entry(f)
    u, u_perp = np.array([1.0, 2.0, 2.0]), np.array([0.0, 1.0, -1.0])
    for x, x_star in ((u_perp, u), (u, u), rng.normal(size=(2, 3))):
        tracer.spans.clear()
        want = bounds.bound_report(f, 0.5, x, x_star)
        assert bits(bounds.bound_report(wrapped, 0.5, x, x_star)) == bits(want)
        called = [tracer.names[span[1]] for span in tracer.spans]
        assert called == [f"catalog.scalar:{f.name}.prox", f"catalog.scalar:{f.name}.gap_kernel"]
