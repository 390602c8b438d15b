"""Command line front end.

Exit codes: 0 on success, 1 on usage or parse errors, 2 when a computed
result violates one of the library's own contracts (chain ordering,
verification suite failure, diverging iteration).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

import numpy as np

# each subcommand imports the other modules it calls, so a run loads only those
from . import catalog
from .core import INF, MEMBERSHIP_TOL, as_gamma, as_vector, parse_vector

ENV_OUTPUT_DIR = "PROXGAP_OUTPUT_DIR"


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a token that starts with a minus as a flag's value
        # only if this matcher accepts it, and by default it misses "-1,2"
        # and "-1e-3"; here every token that starts like a negative real does
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise CliError(message)


def _function_entry(spec):
    entry = catalog.parse_spec(spec)
    if isinstance(entry, catalog.Operator):
        raise CliError(f"spec '{spec}' names an operator; this command requires a convex function")
    return entry


def _vector_flag(text, name, dim):
    """The finite point of dimension ``dim`` that a vector flag gives; errors name the flag."""
    return as_vector(parse_vector(text, name), dim, name)


def _resolve_out(out_arg, default_name):
    if out_arg:
        return Path(out_arg)
    env = os.environ.get(ENV_OUTPUT_DIR)
    if env:
        return Path(env) / default_name
    return None


def run_eval(args):
    from . import bounds, serialize

    entry = _function_entry(args.spec)
    x = _vector_flag(args.x, "--x", entry.dim)
    x_star = _vector_flag(args.xstar, "--xstar", entry.dim)
    gamma = as_gamma(args.gamma, "--gamma")

    report = bounds.bound_report(entry, gamma, x, x_star)

    if args.format == "json":
        text = serialize.json_text(serialize.report_json(report))
    else:
        row = serialize.report_to_csv_row(report)
        text = serialize.csv_text(serialize.BOUND_CSV_HEADER, [row])
    serialize.write(_resolve_out(args.out, f"eval.{args.format}"), text)

    violation = bounds.chain_violation(report)
    if violation is not None:
        print(f"contract violation: {violation}", file=sys.stderr)
        return 2
    return 0


def run_sweep(args):
    from . import analysis, serialize

    A = catalog.as_operator(catalog.parse_spec(args.spec))
    x = _vector_flag(args.x, "--x", A.dim)
    x_star = _vector_flag(args.xstar, "--xstar", A.dim)
    out = _resolve_out(args.out, "sweep.csv")
    if out is not None and out.suffix == ".json":
        raise CliError(
            f"--out '{out}' is also the name of the sweep's JSON sidecar, "
            "which would overwrite the CSV; give the CSV another suffix"
        )

    lo = as_gamma(args.gamma_lo, "--gamma-lo")
    hi = as_gamma(args.gamma_hi, "--gamma-hi")
    if not lo < hi:
        raise CliError(f"--gamma-lo must be below --gamma-hi, got {lo!r} and {hi!r}")
    if args.count < analysis.WINDOW:
        raise CliError(f"--count must be >= {analysis.WINDOW}, got {args.count!r}")
    result = analysis.gamma_sweep(A, x, x_star, lo=lo, hi=hi, count=args.count)

    text = serialize.csv_text(serialize.SWEEP_CSV_HEADER, serialize.sweep_csv_rows(result))
    serialize.write(out, text)
    sidecar = None if out is None else out.with_suffix(".json")
    serialize.write(sidecar, serialize.json_text(serialize.sweep_json(result)))

    print(f"argmax: gamma={result.argmax_gamma!r} value={result.argmax_value!r}")
    print(f"limit gamma->0+: {result.limit_zero.describe()}")
    print(f"limit gamma->inf: {result.limit_infinity.describe()}")
    return 0


def run_series(args):
    from . import bounds, cyclic, serialize

    entry = catalog.parse_spec(args.spec)
    A = catalog.as_operator(entry)
    x = _vector_flag(args.x, "--x", A.dim)
    x_star = _vector_flag(args.xstar, "--xstar", A.dim)

    if args.gammas is not None:
        gammas = [as_gamma(g, "--gammas") for g in parse_vector(args.gammas, "--gammas")]
        schedule = cyclic.GammaSchedule.from_values(gammas)
    else:
        schedule = cyclic.GammaSchedule.const(as_gamma(args.gamma, "--gamma"))
    if args.n_terms < 1:
        raise CliError(f"--n-terms must be >= 1, got {args.n_terms!r}")
    if args.gammas is not None and len(gammas) < args.n_terms:
        raise CliError(
            f"--gammas supplies {len(gammas)} values but {args.n_terms} terms "
            "requested by --n-terms"
        )

    seq = cyclic.generate_cyclic_sequence(A, x, x_star, schedule, args.n_terms)

    text = serialize.csv_text(serialize.SERIES_CSV_HEADER, serialize.series_csv_rows(seq))
    serialize.write(_resolve_out(args.out, "series.csv"), text)

    total = float(seq.partial_sums[-1])
    print(f"carlier (term 1) = {float(seq.terms[0])!r}")
    print(f"partial_sum[{seq.terms.size}] = {total!r}")
    if not isinstance(entry, catalog.Operator):
        g = bounds.gap(entry, x, x_star)
        print(f"gap = {g!r}")
        if g != float("inf") and total > g + MEMBERSHIP_TOL * (1.0 + abs(g)):
            print(
                f"contract violation: series bound {total!r} exceeds gap {g!r}",
                file=sys.stderr,
            )
            return 2
    return 0


def run_verify(args):
    from . import verify

    if args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed!r}")
    verify.check_slack(args.slack, "--slack")
    results = verify.run_all(seed=args.seed, slack=args.slack)
    all_ok = True
    for suite in results:
        print(f"{suite.name}: {suite.passed} passed, {suite.failed} failed")
        for message in suite.failures:
            print(f"  FAIL {message}")
        all_ok = all_ok and suite.ok
    print("OVERALL " + ("PASS" if all_ok else "FAIL"))
    return 0 if all_ok else 2


def _worst(deltas):
    """The largest delta, 0.0 for none.  NaN, as inf / (1 + inf), counts
    as inf, so the worst never reads lower than a failing row's delta."""
    return max((d if d < INF else INF for d in deltas), default=0.0)


def run_oracle_compare(args):
    from . import verify

    entry = _function_entry(args.spec)
    if args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed!r}")
    if args.count < 0:
        raise CliError(f"--count must be >= 0, got {args.count!r}")
    rng = np.random.default_rng(args.seed)
    conj, proxes = verify.oracle_comparison(entry, rng, args.count)

    for x_star, closed, est, _ in conj:
        delta = abs(est.value - closed)
        print(
            f"conjugate x_star={x_star.tolist()}: closed={closed!r} "
            f"oracle={est.value!r} delta={delta!r}"
        )

    for gamma, z, closed, est, delta, _ in proxes:
        print(
            f"prox gamma={gamma} z={z.tolist()}: closed={closed.tolist()} "
            f"oracle={est.tolist()} delta={delta!r}"
        )

    relative = (abs(e.value - c) / (1.0 + abs(c)) for _, c, e, _ in conj)
    print(f"worst conjugate delta (relative) = {_worst(relative)!r}")
    print(f"worst prox delta = {_worst(row[4] for row in proxes)!r}")
    if not all(row[-1] for row in conj + proxes):
        print("contract violation: oracle disagrees with closed forms", file=sys.stderr)
        return 2
    return 0


def run_pgm(args):
    from . import analysis, serialize

    step = as_gamma(args.step, "--step")
    gamma = as_gamma(args.gamma, "--gamma")
    if args.iters < 1:
        raise CliError(f"--iters must be >= 1, got {args.iters!r}")
    y0 = _vector_flag(args.y0, "--y0", 2)

    f_smooth = catalog.make_energy(2)
    f_prox = catalog.make_subspace_indicator([[1.0, 0.0]])
    try:
        trace = analysis.pgm_certificates(f_smooth, f_prox, step, gamma, y0, iters=args.iters)
    except analysis.PgmDiverged as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2

    text = serialize.csv_text(serialize.PGM_CSV_HEADER, serialize.pgm_csv_rows(trace))
    serialize.write(_resolve_out(args.out, "pgm.csv"), text)
    print(f"x_ref = {trace.x_ref.tolist()}")
    print(f"final carlier certificate = {float(trace.carlier_certs[-1])!r}")
    print(f"final bregman gap = {float(trace.bregman_refs[-1])!r}")

    if bool(np.any(trace.carlier_certs > trace.bregman_refs + 1e-12)):
        print("contract violation: certificate exceeds the Bregman gap", file=sys.stderr)
        return 2
    return 0


def _build_parser():
    parser = _Parser(prog="proxgap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    query = argparse.ArgumentParser(add_help=False)
    query.add_argument("--spec", required=True, help="catalog entry, e.g. energy:dim=2")
    query.add_argument("--x", required=True, help="comma-separated coordinates")
    query.add_argument("--xstar", required=True, help="comma-separated coordinates")

    p = sub.add_parser("eval", parents=[query], help="evaluate the bound chain at one query")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=run_eval)

    p = sub.add_parser("sweep", parents=[query], help="Carlier bound over a log-spaced gamma grid")
    p.add_argument("--gamma-lo", type=float, default=1e-6)
    p.add_argument("--gamma-hi", type=float, default=1e6)
    p.add_argument("--count", type=int, default=49)
    p.add_argument("--out", default=None)
    p.set_defaults(func=run_sweep)

    p = sub.add_parser("series", parents=[query], help="cyclic series lower bound")
    schedule = p.add_mutually_exclusive_group()
    schedule.add_argument("--gamma", type=float, default=1.0, help="constant schedule")
    schedule.add_argument("--gammas", default=None, help="explicit comma-separated schedule")
    p.add_argument("--n-terms", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=run_series)

    p = sub.add_parser("verify", help="run the randomized verification suites")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--slack", type=float, default=None, help="override all tolerances")
    p.set_defaults(func=run_verify)

    p = sub.add_parser("oracle-compare", help="closed forms vs brute-force oracles")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=5)
    p.set_defaults(func=run_oracle_compare)

    p = sub.add_parser("pgm", help="proximal gradient demo with certificates")
    p.add_argument("--step", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--y0", default="4.0,3.0")
    p.add_argument("--out", default=None)
    p.set_defaults(func=run_pgm)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # a norm or Carlier value past the float range is +inf, the right
        # answer, so the CLI does not warn of it
        with np.errstate(over="ignore"):
            return args.func(args)
    except (CliError, ValueError, OSError) as exc:  # OSError: an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
