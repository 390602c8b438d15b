"""proxgap benchmark: run one workload, end to end or traced.

    python3 perfbench/run.py --workload chain-queries --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: proxgap is imported from the
checkout's ``src`` and from nowhere else.  Load is one process, one
thread, a closed loop with one client; child processes get
OMP_NUM_THREADS=1 and OPENBLAS_NUM_THREADS=1.

``--trace 0`` runs every input once with its output checked, then repeats
the inputs for ``--seconds`` (repeats must reproduce the checked outputs
bit for bit) and reports the end-to-end metrics.  ``--trace 1`` runs the
workload's first operations untraced and traced in turn, checks that
both give identical outputs, writes the spans to ``perfbench/out`` and
reports the per-layer metrics.  Readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 11
IMPORT_RUNS = 5
TRACE_REPEATS = 3


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return env


def probe(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class CpuRotation:
    """Moves this process to its next allowed CPU every ``period`` seconds."""

    def __init__(self, period=0.5):
        self.allowed = sorted(os.sched_getaffinity(0))
        self.period = period
        self.turn = 0
        self.last = time.perf_counter()

    def step(self):
        if len(self.allowed) < 2 or time.perf_counter() - self.last < self.period:
            return
        self.turn += 1
        try:
            os.sched_setaffinity(0, {self.allowed[self.turn % len(self.allowed)]})
        except OSError:  # affinity is fixed here; stay where we are
            self.allowed = self.allowed[:1]
        self.last = time.perf_counter()

    def restore(self):
        if len(self.allowed) > 1:
            os.sched_setaffinity(0, self.allowed)


def timed(fn, *args):
    from workloads import Raised

    start = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a raising operation is a failed operation
        out = Raised(exc)
    return out, time.perf_counter() - start


class Outcome:
    """Checked outputs of one pass and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.mismatches = 0

    def check(self, reasons):
        self.attempted += 1
        self.failed += bool(reasons)
        self.reasons.update(reasons)


def _reasons(out, check, *args):
    from workloads import Raised

    return ["raised"] if isinstance(out, Raised) else check(*args, out)


def checked_pass(workload, run, env, inputs, outcome, latencies):
    """Run every input once, timing the call and checking its output."""
    from workloads import fingerprint

    digests = []
    for inp in inputs:
        out, seconds = timed(run, env, inp)
        latencies.append(seconds)
        digests.append(fingerprint(out))
        outcome.check(_reasons(out, workload.check, inp))
    return digests


def measure(workload, seed, seconds):
    """End-to-end run: checked pass, then repeats until time is up.

    On a shared 2-CPU virtual machine, load from outside the run slowed
    single CPUs by up to 1.7x for seconds at a time.  So the run moves
    itself from one allowed CPU to the next every half second (children
    inherit the CPU), and an input's latency is the fastest of its
    repeats; percentiles and throughput are taken over these per-input
    latencies.  The set-up probes are spread over the run.
    """
    from workloads import fingerprint

    env = workload.setup()
    inputs = workload.inputs(seed)
    outcome = Outcome()
    for fn, check in workload.extras(env, seed):
        out, _ = timed(fn)
        outcome.check(_reasons(out, check))

    setup = []
    first = []
    begin = time.perf_counter()
    digests = checked_pass(workload, workload.run, env, inputs, outcome, first)
    # only the running minimum is kept, so memory does not grow with speed
    fastest = first[:]
    calls = len(first)
    block = workload.stride
    block_cost = (time.perf_counter() - begin) * block / len(inputs)
    position = 0
    rotation = CpuRotation()
    while True:
        rotation.step()
        elapsed = time.perf_counter() - begin
        if len(setup) < SETUP_RUNS and elapsed >= seconds * (len(setup) + 0.5) / SETUP_RUNS:
            setup.append(probe(workload.name)["setup_s"])
            continue
        if elapsed + block_cost > seconds:
            break
        for i in range(position, position + block):
            out, took = timed(workload.run, env, inputs[i])
            fastest[i] = min(fastest[i], took)
            calls += 1
            outcome.mismatches += fingerprint(out) != digests[i]
        position = (position + block) % len(inputs)
    while len(setup) < SETUP_RUNS:
        setup.append(probe(workload.name)["setup_s"])
    rotation.restore()

    # for cli the set-up probes are children too, and smaller than any CLI run
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    deciles = statistics.quantiles(fastest, n=10, method="inclusive")
    metrics = {
        "ops_per_s": len(fastest) / sum(fastest),
        "op_p50_ms": 1e3 * statistics.median(fastest),
        "op_p90_ms": 1e3 * deciles[8],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    scale = 1e3 if workload.latency_unit == "us" else 1.0
    p50, p90 = (f"{workload.latency_prefix}_{q}_{workload.latency_unit}" for q in ("p50", "p90"))
    samples = f"{calls} timed calls, fastest repeat of each of {len(inputs)} distinct inputs"
    lines = [
        f"{workload.throughput_name} = {metrics['ops_per_s']:.6g} 1/s  [ops_per_s; {samples}]",
        f"{p50} = {scale * metrics['op_p50_ms']:.6g} {workload.latency_unit}  [op_p50_ms; {samples}]",
        f"{p90} = {scale * metrics['op_p90_ms']:.6g} {workload.latency_unit}  [op_p90_ms; {samples}]",
        f"setup_s = {metrics['setup_s']:.6g} s  [median of {SETUP_RUNS} fresh interpreters]",
        f"peak_rss_mb = {peak_rss_mb:.6g} MB  [{'CLI subprocesses' if workload.rss_of_children else 'benchmark process'}]",
    ]
    return outcome, metrics, lines


def trace(workload, seed):
    """Traced run: per-layer metrics and the tracing overhead."""
    from tracer import Tracer, layer_metrics
    from workloads import fingerprint

    inputs = workload.inputs(seed)[: workload.trace_ops]
    run = workload.run_inline
    env = workload.setup()
    outcome = Outcome()
    untraced = []
    digests = checked_pass(workload, run, env, inputs, outcome, untraced)
    untraced_walls = [sum(untraced)]
    traced_walls = []
    first = None
    for repeat in range(TRACE_REPEATS):
        if repeat:
            latencies = []
            for i, inp in enumerate(inputs):
                out, elapsed = timed(run, env, inp)
                latencies.append(elapsed)
                outcome.mismatches += fingerprint(out) != digests[i]
            untraced.extend(latencies)
            untraced_walls.append(sum(latencies))
        tracer = Tracer()
        tracer.install()
        try:
            traced_env = workload.setup()
            tracer.spans.clear()
            wall = 0.0
            for op_id, inp in enumerate(inputs):
                out, elapsed = timed(tracer.run_op, op_id, run, traced_env, inp)
                wall += elapsed
                outcome.mismatches += fingerprint(out) != digests[op_id]
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        first = first or tracer

    path = HERE / "out" / f"trace-{workload.name}-seed{seed}.npz"
    first.dump(path)
    metrics = layer_metrics(first)
    imports = [probe("--imports") for _ in range(IMPORT_RUNS)]
    metrics["cli.numpy_import_ms"] = statistics.median(i["numpy_import_ms"] for i in imports)
    metrics["cli.import_ms"] = statistics.median(i["import_ms"] for i in imports)
    metrics["cli.main_ms"] = 1e3 * statistics.median(untraced) if workload.name == "cli" else 0.0
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    lines = [f"{len(first.spans)} spans over {len(inputs)} operations written to {path.relative_to(ROOT)}"]
    lines += [f"{name} = {value:.6g}" for name, value in metrics.items()]
    return outcome, metrics, lines


def declared_units(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return {metric["name"]: metric["unit"] for metric in declared}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "proxgap" / "__init__.py").is_file():
        print(f"perfbench: no proxgap sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    sys.path.insert(0, str(SRC))
    import proxgap

    if not Path(proxgap.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: proxgap was imported from {proxgap.__file__}", file=sys.stderr)
        return 2
    from workloads import make_workloads

    workloads = make_workloads(ROOT, child_env())
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    if args.trace:
        outcome, metrics, lines = trace(workload, args.seed)
    else:
        outcome, metrics, lines = measure(workload, args.seed, args.seconds)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    mode = "traced" if args.trace else "end-to-end"
    print(f"{workload.name} seed={args.seed} {mode}")
    for line in lines:
        print("  " + line)
    reasons = ", ".join(f"{k} {v}" for k, v in sorted(outcome.reasons.items())) or "none"
    print(
        f"  fail_frac = {outcome.failed / outcome.attempted:.6g}  "
        f"[{outcome.failed} of {outcome.attempted} operations failed; reasons: {reasons}]"
    )
    print(f"  repeats differing from the checked output: {outcome.mismatches}")
    result = {
        "correct": outcome.mismatches == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
