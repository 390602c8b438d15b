"""The four workloads: seeded inputs, the call each operation makes, and
the checks its output must pass.

Every input comes from ``numpy.random.default_rng([seed, k])`` with a
workload-specific ``k``, so the same seed gives the same inputs and the
program sees only the generated values.  Input lists are built in blocks
of ``stride`` operations, one per entry or subcommand, so any whole number
of blocks has the same mix.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import struct
import subprocess
import sys

import numpy as np
from proxgap import analysis, bounds, cli, cyclic, verify

import entries
import reference

# Share of queries whose x* is a subgradient of f at x, perturbed by a
# relative 1e-12..1e-2: the inputs on which the gap cancels.
NEAR_GRAPH_SHARE = 0.25
# Share of chain queries whose Carlier value is checked against mpmath.
REFERENCE_SHARE = 0.25
CARLIER_REL_TOL = 1e-12
# Default bound of the verify duality suite: |lhs - rhs| <= 1e-10 (1 + |lhs|).
DUALITY_SLACK = 1e-10
# log10 ranges of |x|, |x*| and gamma.
MAGNITUDE = (-3.0, 8.0)
GAMMA = (-8.0, 8.0)
PERTURBATION = (-12.0, -2.0)

DIMS = {
    "energy:dim=2": 2,
    "energy:dim=64": 64,
    "subspace:dim=3:basis=1,0,0;0,1,1": 3,
    "burg": 1,
    "shannon": 1,
    "rotator": 2,
}


@dataclasses.dataclass(frozen=True)
class Point:
    """One (entry, x, x*, gamma) input; ``reference`` marks an mpmath check."""

    spec: str
    x: np.ndarray
    x_star: np.ndarray
    gamma: float
    near_graph: bool
    reference: bool = False


def _scale(bounds_log10, u):
    lo, hi = bounds_log10
    return float(10.0 ** (lo + (hi - lo) * u))


def _unit(rng, dim):
    direction = rng.normal(size=dim)
    return direction / np.linalg.norm(direction)


def _strata(rng, n):
    """n numbers in [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _chosen(rng, n, share):
    """A random mask of n with share * n entries set, rounded at random."""
    return rng.permutation(n) < int(share * n + rng.random())


def _graph_point(spec, x, x_star):
    """(x, x*) with x* in A(x), x first moved into dom A where needed.

    The subspace keeps the U-perp part of the given x*; the other entries
    replace x* by their subgradient.
    """
    if spec.startswith("energy"):
        return x, x.copy()
    if spec.startswith("subspace"):
        # U = span{(1, 0, 0), (0, 1, 1)}, U-perp = span{(0, 1, -1)}
        mid = 0.5 * (x[1] + x[2])
        half = 0.5 * (x_star[1] - x_star[2])
        return np.array([x[0], mid, mid]), np.array([0.0, half, -half])
    if spec == "burg":
        x = np.abs(x)
        return x, -1.0 / x
    if spec == "shannon":
        x = np.abs(x)
        return x, np.log(x)
    return x, np.array([-x[1], x[0]])


def draw_points(rng, spec, n, reference_share=0.0):
    """n points of one entry.

    |x|, |x*|, gamma and the near-graph perturbation are stratified, and
    the near-graph and reference shares are fixed, so every seed spreads
    its points over the same ranges in the same proportions.
    """
    dim = DIMS[spec]
    x_size, x_star_size, gamma, moved = (_strata(rng, n) for _ in range(4))
    near_graph = _chosen(rng, n, NEAR_GRAPH_SHARE)
    checked = _chosen(rng, n, reference_share)
    points = []
    for k in range(n):
        x = _unit(rng, dim) * _scale(MAGNITUDE, x_size[k])
        x_star = _unit(rng, dim) * _scale(MAGNITUDE, x_star_size[k])
        if near_graph[k]:
            x, x_star = _graph_point(spec, x, x_star)
            size = _scale(PERTURBATION, moved[k]) * float(np.linalg.norm(x_star))
            x_star = x_star + size * _unit(rng, dim)
        points.append(
            Point(spec, x, x_star, _scale(GAMMA, gamma[k]), bool(near_graph[k]), bool(checked[k]))
        )
    return points


def interleaved(rng, specs, per_entry, reference_share=0.0):
    """per_entry points of each spec, in blocks of one point per spec."""
    columns = [draw_points(rng, spec, per_entry, reference_share) for spec in specs]
    return [column[k] for k in range(per_entry) for column in columns]


class Raised:
    """The output of an operation that raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


def _leaves(value):
    if value is None or isinstance(value, (bool, np.bool_, str, bytes, int, np.integer)):
        yield value
    elif isinstance(value, (float, np.floating)):
        yield float(value)
    elif isinstance(value, np.ndarray):
        yield value.shape
        yield from (float(v) for v in value.ravel())
    elif isinstance(value, Raised):
        yield value.text
    elif dataclasses.is_dataclass(value):
        yield type(value).__name__
        for field in dataclasses.fields(value):
            yield from _leaves(getattr(value, field.name))
    elif isinstance(value, (list, tuple)):
        yield len(value)
        for item in value:
            yield from _leaves(item)
    else:
        raise TypeError(f"cannot fingerprint {type(value).__name__}")


def fingerprint(value):
    """Digest of an output, equal only for bit-identical outputs."""
    digest = hashlib.blake2b(digest_size=16)
    for leaf in _leaves(value):
        if isinstance(leaf, float):
            digest.update(b"f" + struct.pack("<d", leaf))
        else:
            digest.update(b"r" + repr(leaf).encode() + b";")
    return digest.digest()


def has_nan(value):
    return any(isinstance(leaf, float) and math.isnan(leaf) for leaf in _leaves(value))


class Workload:
    """Base: ``run`` is the timed call, ``run_inline`` the traced one."""

    name = ""
    stride = 1
    trace_ops = 1
    rss_of_children = False
    throughput_name = ""
    latency_prefix = ""
    latency_unit = "ms"

    def setup(self):
        return entries.build(self.name)

    def run_inline(self, env, inp):
        return self.run(env, inp)

    def extras(self, env, seed):
        """(call, check) pairs run and checked once, outside the timed loop."""
        return []


class ChainQueries(Workload):
    name = "chain-queries"
    stride = len(entries.CHAIN_SPECS)
    throughput_name = "queries_per_s"
    latency_prefix = "query"
    latency_unit = "us"

    def __init__(self, per_entry=100):
        self.per_entry = per_entry
        self.trace_ops = self.stride * per_entry

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        return interleaved(rng, entries.CHAIN_SPECS, self.per_entry, REFERENCE_SHARE)

    def run(self, env, q):
        f, A = env["entries"][q.spec]
        report = None
        if f is not None:
            rep = bounds.bound_report(f, q.gamma, q.x, q.x_star)
            report = (
                rep.gap,
                rep.fitzpatrick,
                rep.carlier,
                rep.gap_zero,
                rep.gap_equals_carlier,
                bounds.chain_violation(rep),
            )
        return report, bounds.dual_carlier_check(A, q.gamma, q.x, q.x_star)

    def check(self, q, out):
        report, (lhs, rhs) = out
        reasons = []
        if has_nan(out):
            reasons.append("nan")
        if report is not None and report[5] is not None:
            reasons.append("chain_violation")
        if not abs(lhs - rhs) <= DUALITY_SLACK * (1.0 + abs(lhs)):
            reasons.append("duality")
        if q.reference:
            carlier = lhs if report is None else report[2]
            error = reference.carlier_relative_error(q.spec, q.gamma, q.x, q.x_star, carlier)
            if not error <= CARLIER_REL_TOL:
                reasons.append("mpmath")
        return reasons


class Sweeps(Workload):
    name = "sweeps"
    stride = len(entries.CHAIN_SPECS)
    trace_ops = len(entries.CHAIN_SPECS)
    throughput_name = "sweep_tasks_per_s"
    latency_prefix = "sweep_task"
    series_terms = 1000
    pgm_iters = 200

    def __init__(self, per_entry=18):
        self.per_entry = per_entry

    def inputs(self, seed):
        return interleaved(np.random.default_rng([seed, 2]), entries.CHAIN_SPECS, self.per_entry)

    def run(self, env, t):
        A = env["entries"][t.spec][1]
        sweep = analysis.gamma_sweep(A, t.x, t.x_star)
        zero = analysis.classify_limit_zero(A, t.x, t.x_star)
        infinity = analysis.classify_limit_infinity(A, t.x, t.x_star)
        schedule = cyclic.GammaSchedule.const(t.gamma)
        total, terms = cyclic.series_bound(A, t.x, t.x_star, schedule, self.series_terms)
        return (
            sweep.values,
            sweep.argmax_gamma,
            sweep.argmax_value,
            sweep.limit_zero,
            sweep.limit_infinity,
            zero,
            infinity,
            total,
            terms,
        )

    def check(self, t, out):
        return ["nan"] if has_nan(out) else []

    def extras(self, env, seed):
        y0 = np.random.default_rng([seed, 3]).uniform(-5.0, 5.0, size=2)
        smooth, prox = env["pgm"]

        def pgm():
            return analysis.pgm_certificates(smooth, prox, 0.5, 1.0, y0, iters=self.pgm_iters)

        def check_boundary(report):
            flags = (
                report.burg_matches,
                report.burg_limit_ok,
                report.shannon_matches,
                report.shannon_limit_ok,
            )
            return [] if all(flags) and not has_nan(report) else ["boundary"]

        def check_pgm(trace):
            # the bound the ``pgm`` command enforces
            exceeds = bool(np.any(trace.carlier_certs > trace.bregman_refs + 1e-12))
            return ["pgm_certificate"] if exceeds or has_nan(trace) else []

        return [(analysis.boundary_limit_regressions, check_boundary), (pgm, check_pgm)]


class Verify(Workload):
    name = "verify"
    throughput_name = "verify_seeds_per_s"
    latency_prefix = "verify_seed"

    def __init__(self, seeds=4):
        self.seeds = seeds

    def inputs(self, seed):
        return [self.seeds * seed + k for k in range(self.seeds)]

    def run(self, env, seed):
        return verify.run_all(seed)

    def check(self, seed, out):
        return [f"suite:{suite.name}" for suite in out if not suite.ok]


class Cli(Workload):
    name = "cli"
    stride = 6
    trace_ops = 6
    rss_of_children = True
    throughput_name = "cli_runs_per_s"
    latency_prefix = "cli"

    def __init__(self, root, child_env, blocks=3):
        self.root = root
        self.child_env = child_env
        self.blocks = blocks

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 4])
        offset = int(rng.integers(60))

        def point_args(specs, block):
            spec = specs[(offset + block) % len(specs)]
            p = draw_points(rng, spec, 1)[0]
            return p, ["--spec", spec, f"--x={_csv(p.x)}", f"--xstar={_csv(p.x_star)}"]

        argvs = []
        for block in range(self.blocks):
            p, args = point_args(entries.FUNCTION_SPECS, block)
            argvs.append(["eval", *args, f"--gamma={p.gamma!r}"])
            p, args = point_args(entries.CHAIN_SPECS, block)
            argvs.append(["sweep", *args, "--count", "9"])
            p, args = point_args(entries.CHAIN_SPECS, block)
            argvs.append(["series", *args, f"--gamma={p.gamma!r}", "--n-terms", "20"])
            argvs.append(["pgm", "--iters", "50", f"--y0={_csv(rng.uniform(-5.0, 5.0, size=2))}"])
            seed_arg = str(self.blocks * seed + block)
            argvs.append(["verify", "--seed", seed_arg])
            spec = entries.ORACLE_SPECS[(offset + block) % len(entries.ORACLE_SPECS)]
            argvs.append(["oracle-compare", "--spec", spec, "--seed", seed_arg, "--count", "1"])
        return argvs

    def run(self, env, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "proxgap.cli", *argv],
            cwd=self.root,
            env=self.child_env,
            capture_output=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def run_inline(self, env, argv):
        # stderr is left out: warnings print once per interpreter
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue().encode()

    def check(self, argv, out):
        return [] if out[0] == 0 else [f"{argv[0]}:exit{out[0]}"]


def _csv(v):
    return ",".join(repr(float(c)) for c in v)


def make_workloads(root, child_env):
    return {
        w.name: w for w in (ChainQueries(), Sweeps(), Verify(), Cli(root, child_env))
    }
