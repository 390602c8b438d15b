"""Outside-in span tracing of proxgap's layers.

``Tracer.install`` replaces the module attributes each layer calls
through with wrappers that record one span per call, and wraps the
callables of every catalog entry built while it is installed (through
``dataclasses.replace`` on the frozen entries).  ``uninstall`` puts every
original back.  No file under ``src/`` changes.

A span is (operation id, name id, start, end, parent span index, count).
Span names read ``<layer>:<detail>``; the layer's first dotted part is
the proxgap module.  ``count`` carries what a layer metric needs beyond
time: rows of a batch call, series terms, checks of a verify suite, or 1
for a Lambert W call in the log domain.  Spans stay in memory until
:meth:`Tracer.dump` writes them.
"""

from __future__ import annotations

import dataclasses
import functools
import time

import numpy as np

_MARK = "_perfbench_traced"

ROOT = "bench:op"

_BOUNDS_FUNCTIONS = (
    "gap",
    "carlier_bound",
    "bound_report",
    "chain_violation",
    "minty_decompose",
    "dual_carlier_check",
    "fitzpatrick_bound",
    "pair_inequality_check",
    "bregman_distance",
)
_ANALYSIS_FUNCTIONS = (
    "gamma_sweep",
    "classify_limit_zero",
    "classify_limit_infinity",
    "boundary_limit_regressions",
    "pgm_certificates",
)
_CYCLIC_FUNCTIONS = ("series_bound", "ncyclic_identity_check", "fitzpatrick_n_lower")
_ORACLE_FUNCTIONS = ("numeric_conjugate", "numeric_prox", "sampled_fitzpatrick")
VERIFY_SUITES = ("chain", "duality", "minty", "pair", "oracle")
_FACTORIES = (
    "make_energy",
    "make_subspace_indicator",
    "make_burg",
    "make_shannon",
    "make_rotator",
    "subdifferential_operator",
    "conjugate_function",
)


def _log_domain(args, kwargs, result):
    # lambert_w_exp leaves the direct path for u > 700
    return int(float(args[0]) > 700.0)


def _rows(args, kwargs, result):
    return len(args[0])


def _terms(args, kwargs, result):
    return int(args[4] if len(args) > 4 else kwargs["n_terms"])


def _checks(args, kwargs, result):
    return result.passed + result.failed


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self._stack = [-1]
        self._patches = []
        self.op = -1

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _call(self, name_id, fn, count, args, kwargs):
        spans = self.spans
        stack = self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans[index] = (self.op, name_id, start, time.perf_counter(), parent, 0)
            stack.pop()
            raise
        end = time.perf_counter()
        stack.pop()
        n = 0 if count is None else count(args, kwargs, result)
        spans[index] = (self.op, name_id, start, end, parent, n)
        return result

    def wrap(self, fn, name, count=None):
        """``fn`` recording a span named ``name`` per call; idempotent."""
        if getattr(fn, _MARK, False):
            return fn
        name_id = self._name_id(name)
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name_id, fn, count, args, kwargs)

        setattr(traced, _MARK, True)
        return traced

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` as operation ``op_id`` under a root span."""
        self.op = op_id
        return self._call(self._name_id(ROOT), fn, None, args, {})

    def wrap_entry(self, entry):
        """A copy of a catalog entry whose callables record spans."""
        from proxgap import catalog

        changes = {}
        for field in dataclasses.fields(entry):
            value = getattr(entry, field.name)
            if value is None or field.name == "inverse_factory":
                continue
            label = f"{entry.name}.{field.name}"
            if isinstance(value, catalog.SetSpec):
                changes[field.name] = catalog.SetSpec(
                    contains=self.wrap(value.contains, f"catalog.scalar:{label}.contains"),
                    closure_contains=self.wrap(
                        value.closure_contains, f"catalog.scalar:{label}.closure_contains"
                    ),
                )
            elif callable(value):
                if field.name.endswith("_batch"):
                    changes[field.name] = self.wrap(value, f"catalog.batch:{label}", _rows)
                else:
                    changes[field.name] = self.wrap(value, f"catalog.scalar:{label}")
        return dataclasses.replace(entry, **changes)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _patch_span(self, owner, attr, name, count=None):
        self._patch(owner, attr, self.wrap(vars(owner)[attr], name, count))

    def _patch_factory(self, owner, attr):
        factory = vars(owner)[attr]

        def build(*args, **kwargs):
            return self.wrap_entry(factory(*args, **kwargs))

        self._patch(owner, attr, self.wrap(build, f"catalog.build:{attr}"))

    def install(self):
        from proxgap import analysis, bounds, catalog, cli, cyclic, oracle, verify

        for module in (bounds, catalog, analysis, cyclic, oracle):
            self._patch_span(module, "as_vector", "core.as_vector:as_vector")
        for module in (catalog, analysis):
            self._patch_span(module, "lambert_w_exp", "lambertw:lambert_w_exp", _log_domain)
        for module in (catalog, analysis, verify):
            for attr in _FACTORIES:
                if attr in vars(module):
                    self._patch_factory(module, attr)
        inverse = vars(catalog.Operator)["inverse"]
        self._patch(
            catalog.Operator,
            "inverse",
            self.wrap(lambda op: self.wrap_entry(inverse(op)), "catalog.inverse:inverse"),
        )
        for module, attrs in (
            (bounds, _BOUNDS_FUNCTIONS),
            (analysis, ("carlier_bound", "bregman_distance")),
            (verify, ("bound_report", "dual_carlier_check", "pair_inequality_check")),
        ):
            for attr in attrs:
                self._patch_span(module, attr, f"bounds:{attr}")
        self._patch_span(cyclic, "generate_cyclic_sequence", "cyclic:generate_cyclic_sequence", _terms)
        for attr in _CYCLIC_FUNCTIONS:
            self._patch_span(cyclic, attr, f"cyclic:{attr}")
        for attr in _ANALYSIS_FUNCTIONS:
            self._patch_span(analysis, attr, f"analysis:{attr}")
        for attr in _ORACLE_FUNCTIONS:
            self._patch_span(oracle, attr, f"oracle:{attr}")
        for attr in ("numeric_conjugate", "numeric_prox"):
            self._patch_span(verify, attr, f"oracle:{attr}")
        self._patch_span(verify, "run_all", "verify:run_all")
        for suite in VERIFY_SUITES:
            attr = f"run_{suite}_suite"
            self._patch_span(verify, attr, f"verify.suite.{suite}:{attr}", _checks)
        self._patch_span(cli, "main", "cli:main")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """The spans as parallel numpy arrays."""
        table = np.array(self.spans, dtype=float).reshape(-1, 6)
        ints = table[:, [0, 1, 4, 5]].astype(np.int64)
        return {
            "op": ints[:, 0],
            "name": ints[:, 1],
            "start": table[:, 2],
            "end": table[:, 3],
            "parent": ints[:, 2],
            "count": ints[:, 3],
        }

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer):
    """Per-layer metrics over the operations of one traced pass.

    Self time is a span's duration minus the durations of its children;
    shares are of the summed root-span durations.  Layers the pass never
    entered read 0.
    """
    a = tracer.arrays()
    names = tracer.names
    layer = np.array([n.split(":")[0] for n in names] or [""])[a["name"]]
    module = np.array([n.split(":")[0].split(".")[0] for n in names] or [""])[a["name"]]
    full = np.array(names or [""])[a["name"]]
    duration = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    children = np.bincount(
        a["parent"][has_parent], weights=duration[has_parent], minlength=duration.size
    )
    self_time = duration - children
    parent_module = np.where(has_parent, module[np.maximum(a["parent"], 0)], "")

    roots = full == ROOT
    ops = max(int(np.count_nonzero(roots)), 1)
    wall = float(np.sum(duration[roots])) or 1.0

    def count(mask):
        return float(np.count_nonzero(mask))

    def share(mask):
        return float(np.sum(self_time[mask])) / wall

    def ratio(num, den):
        return num / den if den else 0.0

    as_vector = layer == "core.as_vector"
    lambert = layer == "lambertw"
    scalar = layer == "catalog.scalar"
    batch = layer == "catalog.batch"
    generate = full == "cyclic:generate_cyclic_sequence"
    metrics = {
        "core.as_vector.calls_per_op": count(as_vector) / ops,
        "core.as_vector.self_share": share(as_vector),
        "lambertw.calls_per_op": count(lambert) / ops,
        "lambertw.self_us_per_call": ratio(1e6 * float(np.sum(self_time[lambert])), count(lambert)),
        "lambertw.log_domain_frac": ratio(float(np.sum(a["count"][lambert])), count(lambert)),
        "catalog.scalar.calls_per_op": count(scalar) / ops,
        "catalog.scalar.self_share": share(scalar),
        "catalog.batch.points_per_op": float(np.sum(a["count"][batch])) / ops,
        "catalog.batch.self_share": share(batch),
        "catalog.inverse.builds_per_op": count(layer == "catalog.inverse") / ops,
        "bounds.gap.calls_per_op": count(full == "bounds:gap") / ops,
        "bounds.self_share": share(module == "bounds"),
        "cyclic.terms_per_s": ratio(
            float(np.sum(a["count"][generate])), float(np.sum(duration[generate]))
        ),
        "cyclic.self_share": share(module == "cyclic"),
        "analysis.carlier_calls_per_task": count(
            (full == "bounds:carlier_bound") & (parent_module == "analysis")
        )
        / ops,
        "analysis.self_share": share(module == "analysis"),
        "oracle.points_scanned_per_seed": float(
            np.sum(a["count"][batch & (parent_module == "oracle")])
        )
        / ops,
        "oracle.scalar_evals_per_seed": count(scalar & (parent_module == "oracle")) / ops,
        "oracle.self_share": share(module == "oracle"),
    }
    checks = 0.0
    for suite in VERIFY_SUITES:
        mask = layer == f"verify.suite.{suite}"
        metrics[f"verify.suite.{suite}.self_s"] = float(np.sum(self_time[mask])) / ops
        checks += float(np.sum(a["count"][mask]))
    metrics["verify.checks_per_seed"] = checks / ops
    return metrics
