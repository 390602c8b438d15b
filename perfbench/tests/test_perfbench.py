"""Tests of the benchmark itself; they are not part of proxgap's suite.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from proxgap import bounds, catalog, core, verify  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import fingerprint  # noqa: E402

SMALL = {
    "chain-queries": workloads.ChainQueries(per_entry=4),
    "sweeps": workloads.Sweeps(per_entry=1),
    "verify": workloads.Verify(seeds=1),
    "cli": workloads.Cli(ROOT, bench.child_env(), blocks=1),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_identical_inputs_and_outputs(name):
    w = SMALL[name]
    inputs = w.inputs(5)
    assert fingerprint(inputs) == fingerprint(w.inputs(5))
    assert fingerprint(inputs) != fingerprint(w.inputs(6))
    first, second = w.setup(), w.setup()
    assert fingerprint([w.run_inline(first, i) for i in inputs]) == fingerprint(
        [w.run_inline(second, i) for i in inputs]
    )


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_is_bit_identical_to_untraced(name):
    w = SMALL[name]
    inputs = w.inputs(3)[: w.trace_ops]
    env = w.setup()
    plain = [fingerprint(w.run_inline(env, i)) for i in inputs]
    tracer = Tracer()
    tracer.install()
    try:
        traced_env = w.setup()
        tracer.spans.clear()
        traced = [
            fingerprint(tracer.run_op(k, w.run_inline, traced_env, i))
            for k, i in enumerate(inputs)
        ]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert bounds.as_vector is core.as_vector
    assert catalog.Operator.inverse is vars(catalog.Operator)["inverse"]
    metrics = layer_metrics(tracer)
    assert metrics["core.as_vector.calls_per_op"] > 0
    assert metrics["core.as_vector.self_share"] > 0


def test_spans_nest_and_count_bound_report_layers():
    tracer = Tracer()
    tracer.install()
    try:
        f = catalog.parse_spec("energy:dim=2")
        tracer.spans.clear()
        tracer.run_op(0, bounds.bound_report, f, 1.0, [1.0, 0.0], [0.0, 1.0])
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name"]]
    assert names[0] == "bench:op" and spans["parent"][0] == -1
    assert (spans["parent"][1:] >= 0).all()
    assert all(spans["start"][p] <= s for p, s in zip(spans["parent"][1:], spans["start"][1:]))
    metrics = layer_metrics(tracer)
    # (1, 0) and (0, 1) are off the graph, so the sharpness test stops at
    # its first gap: two gap calls in all
    assert metrics["bounds.gap.calls_per_op"] == 2


def _fails(w, env, inputs):
    outcome = bench.Outcome()
    bench.checked_pass(w, w.run, env, inputs, outcome, [])
    return outcome.failed


def test_planted_prox_fault_raises_fail_frac():
    w = workloads.ChainQueries(per_entry=8)
    spec = "energy:dim=2"
    inputs = [dataclasses.replace(q, reference=True) for q in w.inputs(3) if q.spec == spec]
    env = w.setup()
    clean = _fails(w, env, inputs)
    f = env["entries"][spec][0]
    bad = dataclasses.replace(f, prox=lambda gamma, z: f.prox(gamma, z) * (1.0 + 1e-6))
    env["entries"][spec] = (bad, catalog.as_operator(bad))
    assert _fails(w, env, inputs) > clean


def test_verify_with_zero_slack_fails():
    w = SMALL["verify"]
    seed = w.inputs(0)[0]
    outcome = bench.Outcome()
    outcome.check(bench._reasons(verify.run_all(seed), w.check, seed))
    assert outcome.failed == 0
    outcome.check(bench._reasons(verify.run_all(seed, slack=0.0), w.check, seed))
    assert outcome.failed == 1


def test_failing_cli_run_counts():
    w = SMALL["cli"]
    argv = ["eval", "--spec", "burg", "--x", "1", "--xstar", "1", "--gamma", "0"]
    out = w.run(None, argv)
    assert bench._reasons(out, w.check, argv) == ["eval:exit1"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "tests"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    args = ["--workload", "chain-queries", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *command[1:], *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
