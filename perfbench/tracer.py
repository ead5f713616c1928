"""Spans around the calls into each roughdiff module, installed at run time.

Nothing under ``src/`` knows about tracing: :func:`installed` swaps module
attributes and class methods for timing wrappers and puts the originals
back on exit.  Each span records its name, the per-layer metric its self
time feeds, its parent span, and its start and end.  A span's self time is
its duration minus the durations of its direct children, so the self times
of all spans add up to the duration of the root span (``run_scenario``).

Counts marked *computed* in the README come from array shapes and call
arguments, never from timing.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import json
import os
from time import perf_counter

import numpy as np

TIME_METRICS = (
    "runner.load_s", "runner.gate_s", "runner.evaluate_s", "runner.write_s",
    "runner.self_s", "sampling.generate_s", "fields.eval_s",
    "calculus.functional_s", "integrability.check_s", "kernels.potential_s",
    "kernels.pde_s", "kernels.fit_s", "kernels.lq_s", "kernels.save_s",
)
COUNT_METRICS = (
    "sampling.batches", "sampling.path_steps", "fields.eval_calls",
    "fields.points", "calculus.calls", "calculus.terms",
    "integrability.calls", "integrability.potential_points",
    "kernels.mc_samples", "kernels.pde_node_steps",
)
FIELD_METHODS = ("_diag_many", "_matrix_many", "matrix_and_divergence",
                 "divergence_many")


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans = []   # [name, metric, parent index or -1, start, end]
        self.stack = []
        self.counters = collections.Counter()
        self.save_bytes = 0

    def wrap(self, name, metric, fn, count=None, label=None):
        """``fn`` inside a span; ``count(tracer, parent, args, kwargs,
        result)`` updates counters after it returns, and ``label(args)``
        adds a suffix to the span name."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            full = name if label is None else f"{name}[{label(args)}]"
            span = [full, metric, parent, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if count is not None:
                count(self, parent, args, kwargs, result)
            return result

        return traced

    def current_metric(self):
        return self.spans[self.stack[-1]][1] if self.stack else None

    def metrics(self):
        """Self time per layer metric, counters, and the traced wall time."""
        child = [0.0] * len(self.spans)
        for _, _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(TIME_METRICS, 0.0)
        wall = 0.0
        generate_s = 0.0
        for (_, metric, parent, t0, t1), inner in zip(self.spans, child):
            out[metric] += (t1 - t0) - inner
            if parent < 0:
                wall += t1 - t0
            if metric == "sampling.generate_s":
                generate_s += t1 - t0
        for name in COUNT_METRICS:
            out[name] = self.counters[name]
        out["kernels.save_mb"] = self.save_bytes / 1e6
        steps = self.counters["sampling.path_steps"]
        out["sampling.steps_per_s"] = steps / generate_s if generate_s else 0.0
        out["trace.wall_s"] = wall
        return out

    def dump(self, path):
        """Write the spans as JSON: id, parent, name, start and end in
        seconds from the first span."""
        base = self.spans[0][3] if self.spans else 0.0
        rows = [{"id": i, "parent": parent, "name": name,
                 "start": t0 - base, "end": t1 - base}
                for i, (name, _, parent, t0, t1) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump(rows, fh)


# ------------------------------------------------------------ counters

def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_batch(fn):
    def count(tr, parent, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        tr.counters["sampling.batches"] += 1
        steps = round(a["horizon"] / a["fine_step"])
        tr.counters["sampling.path_steps"] += len(a["path_ids"]) * steps
    return count


def _count_field(tr, parent, args, kwargs, result):
    # nested evaluations (a mollified field asking its base field) are not
    # calls across the module boundary
    if parent < 0 or tr.spans[parent][1] != "fields.eval_s":
        tr.counters["fields.eval_calls"] += 1
        tr.counters["fields.points"] += np.shape(args[1])[0]


def _count(name):
    def count(tr, parent, args, kwargs, result):
        tr.counters[name] += 1
    return count


def _count_kahan(tr, parent, args, kwargs, result):
    tr.counters["calculus.calls"] += 1
    tr.counters["calculus.terms"] += int(np.size(args[0]))


def _count_potential(fn):
    def count(tr, parent, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        if a["source"] == "monte-carlo":
            tr.counters["kernels.mc_samples"] += int(a["n_samples"])
    return count


def _count_pde(fn):
    def count(tr, parent, args, kwargs, result):
        dt = _bound(fn, args, kwargs)["dt"]
        nodes = int(np.prod(result.values.shape[1:]))
        tr.counters["kernels.pde_node_steps"] += nodes * int(
            round(result.times[-1] / dt))
    return count


def _count_save(tr, parent, args, kwargs, result):
    prefix = args[1]
    tr.save_bytes += sum(os.path.getsize(prefix + ext)
                         for ext in (".csv", ".json"))


# ------------------------------------------------------------ installation

def _route(args):
    return args[0] if isinstance(args[0], str) else "grid"


def _targets():
    """(owner, attribute, metric, counter) for every wrapped call, in the
    layer order of the README."""
    from roughdiff import (calculus, fields, integrability, kernels, runner,
                           sampling)

    out = [
        (runner, "load_scenario", "runner.load_s", None),
        (runner, "gate_scenario", "runner.gate_s", None),
        (runner, "evaluate_chunk", "runner.evaluate_s", None),
        (runner, "write_report_csv", "runner.write_s", None),
        (runner.RunManifest, "save", "runner.write_s", None),
        (runner, "run_scenario", "runner.self_s", None),
        (sampling, "generate_batch", "sampling.generate_s",
         _count_batch(sampling.generate_batch)),
    ]
    for cls in vars(fields).values():
        if isinstance(cls, type) and issubclass(cls, fields.CoefficientField):
            out += [(cls, attr, "fields.eval_s", _count_field)
                    for attr in FIELD_METHODS if attr in vars(cls)]
    out += [(calculus, attr, "calculus.functional_s", _count("calculus.calls"))
            for attr in ("quadratic_variation", "covariation", "forward_sum",
                         "trapezoid_sum", "mean_stderr")]
    out += [
        (calculus, "kahan_sum", "calculus.functional_s", _count_kahan),
        (integrability, "check_condition_1", "integrability.check_s",
         _count("integrability.calls")),
        (integrability, "check_condition_2", "integrability.check_s",
         _count("integrability.calls")),
        (kernels, "resolvent_potential", "kernels.potential_s",
         _count_potential(kernels.resolvent_potential)),
        (kernels, "solve_kernel_pde", "kernels.pde_s",
         _count_pde(kernels.solve_kernel_pde)),
        (kernels, "fit_aronson_M", "kernels.fit_s", None),
        (kernels, "potential_Lq_norm", "kernels.lq_s", None),
        (kernels.GridKernel, "save", "kernels.save_s", _count_save),
        (kernels.PotentialField, "save", "kernels.save_s", _count_save),
    ]
    return out


def _counting_call(tr, fn):
    """PotentialField.__call__: count the points U is evaluated at inside
    integrability spans; no span of its own."""
    @functools.wraps(fn)
    def call(self, pts):
        if tr.current_metric() == "integrability.check_s" and np.ndim(pts) == 2:
            tr.counters["integrability.potential_points"] += np.shape(pts)[0]
        return fn(self, pts)
    return call


@contextlib.contextmanager
def installed(tr):
    """Wrap every target with spans of ``tr`` for the duration of the
    block."""
    from roughdiff import kernels

    saved = []
    try:
        for owner, attr, metric, count in _targets():
            fn = vars(owner)[attr]
            name = f"{owner.__name__.removeprefix('roughdiff.')}.{attr}"
            label = _route if attr == "resolvent_potential" else None
            saved.append((owner, attr, fn))
            setattr(owner, attr, tr.wrap(name, metric, fn, count, label))
        call = vars(kernels.PotentialField)["__call__"]
        saved.append((kernels.PotentialField, "__call__", call))
        kernels.PotentialField.__call__ = _counting_call(tr, call)
        yield tr
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
