"""Every output format of the command line: its CSV tables and JSON payloads.

One cell format serves every table: numbers are full-precision reprs, so a
round trip is exact; a vector is its ``;``-joined entries, a flag
``true``/``false`` and an absent value the empty cell.  CSV rows end in
CRLF, on stdout and in files alike.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys

import numpy as np

from .bounds import BoundReport

BOUND_CSV_HEADER = tuple(field.name for field in dataclasses.fields(BoundReport))
SWEEP_CSV_HEADER = ("gamma", "value")
SERIES_CSV_HEADER = ("k", "gamma_k", "term_k", "partial_sum_k")
PGM_CSV_HEADER = ("n", "bregman_ref", "carlier_cert", "partial_sum")


def cell(value):
    """One CSV cell: None empty, flags true/false, counts plain, reals and vectors as reprs."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, np.ndarray):
        return ";".join(repr(float(c)) for c in value)
    return repr(float(value))


def rows(*columns):
    """The formatted table whose row i holds entry i of every column."""
    return [[cell(value) for value in row] for row in zip(*columns)]


def report_to_csv_row(report):
    return [cell(getattr(report, name)) for name in BOUND_CSV_HEADER]


def sweep_csv_rows(result):
    return rows(result.gammas, result.values)


def series_csv_rows(seq):
    return rows(range(1, seq.terms.size + 1), seq.gammas, seq.terms, seq.partial_sums)


def pgm_csv_rows(trace):
    n = range(len(trace.iterates))
    return rows(n, trace.bregman_refs, trace.carlier_certs, trace.partial_sums)


def report_json(report):
    """The ``eval --format json`` payload: every report field, vectors as lists."""
    payload = {name: getattr(report, name) for name in BOUND_CSV_HEADER}
    return payload | {"x": report.x.tolist(), "x_star": report.x_star.tolist()}


def sweep_json(result):
    return {
        "operator": result.operator_name,
        "x": result.x.tolist(),
        "x_star": result.x_star.tolist(),
        "gamma_lo": float(result.gammas[0]),
        "gamma_hi": float(result.gammas[-1]),
        "count": int(result.gammas.size),
        "argmax_gamma": result.argmax_gamma,
        "argmax_value": result.argmax_value,
        "limit_zero": dataclasses.asdict(result.limit_zero),
        "limit_infinity": dataclasses.asdict(result.limit_infinity),
    }


def csv_text(header, table):
    """The header and rows rendered as CSV, each line ending in CRLF."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows([header, *table])
    return buffer.getvalue()


def json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


def write(path, text):
    """Print text to stdout when path is None, else write it to path and say so."""
    if path is None:
        sys.stdout.write(text)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, newline="")
    print(f"wrote {path}")
