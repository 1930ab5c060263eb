"""Spans around the public functions and oracle methods of each mbl module.

The tracer lives entirely in the benchmark: it patches names in the loaded
``mbl`` modules and never edits the package.  A function is patched in every
``mbl`` module namespace that holds it (``gram`` is called as
``mbl.cli.gram`` and ``mbl.synth.gram``), and an oracle method is patched on
its class.  Modules are looked up in ``sys.modules``, because the package
attribute ``mbl.margin`` is the *function* ``margin``, not the module.  A
target that no longer exists is reported as missing and skipped, so a
refactor that deletes a class turns the metrics fed only by it into
``null`` instead of breaking the traced run.

Spans are kept in memory as tuples ``(id, name, parent id, start ns, end
ns, counters)`` and written once, after ``mbl.cli.main`` returns.  A span
opened on a worker thread with no open span of its own takes the innermost
open span of the main thread as its parent (the estimator that submitted
the batch).

``attribute`` turns spans into self times that add up to wall time: at each
instant the elapsed time goes to the innermost open spans, split equally
when several threads are inside spans at once.  With one thread this is the
usual "duration minus the time covered by child spans".
"""
from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("rademacher", "lowerbound", "kernel", "margin", "bounds", "synth", "cli")
ROOT = 0  # span id of the synthetic root that covers mbl.cli.main
ROOT_NAME = "cli.main"
ESTIMATORS = ("rademacher.mc", "rademacher.exact")
ORACLES = ("rademacher.oracle", "lowerbound.dp", "kernel.quad")

_LOWERBOUND_ORACLES = (
    "IntervalSupOracle",
    "IntervalSumOracle",
    "UnionSupOracle",
    "StarSupOracle",
    "Theorem3SupOracle",
    "UnionMarginSupOracle",
)


def _rows(block) -> int:
    shape = getattr(block, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _mc_counts(args, kwargs, result):
    return {"trials": int(kwargs.get("trials", args[2] if len(args) > 2 else 0))}


def _exact_counts(args, kwargs, result):
    n = int(kwargs.get("n", args[1] if len(args) > 1 else 0))
    return {"vectors": 1 << n}


def _sign_counts(args, kwargs, result):
    return {"bits": int(result.size)}


def _dp_counts(args, kwargs, result):
    oracle = args[0]
    if hasattr(oracle, "inside"):
        points = sum(len(idx) for idx in oracle.inside)
    elif hasattr(oracle, "idx"):
        points = len(oracle.idx)
    else:
        return None  # a delegating oracle; its children carry the cells
    return {"cells": _rows(args[1]) * points * (int(oracle.t) + 1)}


def _quad_counts(args, kwargs, result):
    n = int(args[0].n)
    return {"flops": 2 * n * n * _rows(args[1])}


def _gram_counts(args, kwargs, result):
    return {"bytes": int(result.shape[0]) ** 2 * 8}


def _class_rows(args, kwargs, result):
    return {"rows": int(result.values.shape[0])}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs.get("path", args[0]))}


# (module, attribute or "Class.method", span name, counter function)
TARGETS = [
    ("mbl.rademacher", "mc_empirical_rademacher", "rademacher.mc", _mc_counts),
    ("mbl.rademacher", "exact_empirical_rademacher", "rademacher.exact", _exact_counts),
    ("mbl.rademacher", "trial_sign_block", "rademacher.sign", _sign_counts),
    ("mbl.rademacher", "enumerate_sign_vectors", "rademacher.sign", _sign_counts),
    ("mbl.rademacher", "TabulatedSupOracle.query", "rademacher.oracle", None),
    ("mbl.rademacher", "TabulatedSupOracle.query_block", "rademacher.oracle", None),
    ("mbl.lowerbound", "select_t", "lowerbound.select_t", None),
    ("mbl.lowerbound", "reference_complexity", "lowerbound.reference", None),
    ("mbl.lowerbound", "verify_theorem3", "lowerbound.verify", None),
    ("mbl.lowerbound", "sweep_theorem3", "lowerbound.verify", None),
    ("mbl.lowerbound", "partition_points", "lowerbound.partition", None),
    *[
        ("mbl.lowerbound", f"{cls}.{meth}", "lowerbound.dp", _dp_counts)
        for cls in _LOWERBOUND_ORACLES
        for meth in ("query", "query_block")
    ],
    ("mbl.kernel", "parse_kernel_spec", "kernel.parse", None),
    ("mbl.kernel", "gram", "kernel.gram", _gram_counts),
    ("mbl.kernel", "check_psd", "kernel.psd", None),
    ("mbl.kernel", "kernel_rad_bounds", "kernel.bounds", None),
    ("mbl.kernel", "KernelSupOracle.query", "kernel.quad", _quad_counts),
    ("mbl.kernel", "KernelSupOracle.query_block", "kernel.quad", _quad_counts),
    ("mbl.margin", "random_margin_instance", "margin.instance", None),
    ("mbl.margin", "materialize_margin_class", "margin.materialize", _class_rows),
    ("mbl.margin", "verify_lemma1", "margin.lemma1", None),
    ("mbl.margin", "lemma1_sweep", "margin.lemma1", None),
    ("mbl.margin", "margins", "margin.cdf", None),
    ("mbl.margin", "empirical_margin_cdf", "margin.cdf", None),
    ("mbl.margin", "margin_distribution", "margin.cdf", None),
    ("mbl.bounds", "theorem1_bound", "bounds.thm1", None),
    ("mbl.bounds", "theorem2_bound", "bounds.thm2", None),
    ("mbl.bounds", "compare_bounds", "bounds.compare", None),
    ("mbl.synth", "generate", "synth.generate", None),
    ("mbl.synth", "train_ova_ridge", "synth.ridge", None),
    ("mbl.synth", "read_dataset_csv", "synth.read", _file_bytes),
    ("mbl.synth", "read_scores_csv", "synth.read", _file_bytes),
    ("mbl.synth", "read_labels_csv", "synth.read", _file_bytes),
    ("mbl.synth", "read_tabulated_csv", "synth.read", _file_bytes),
    ("mbl.synth", "write_dataset_csv", "synth.write", None),
    ("mbl.synth", "write_scores_csv", "synth.write", None),
    ("mbl.synth", "write_labels_csv", "synth.write", None),
]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counter_errors = 0
        self._ids = itertools.count(ROOT + 1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _stack(self) -> list[int]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else ROOT

    def wrap(self, fn, name: str, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = next(tracer._ids)
            parent = tracer._parent(stack)
            stack.append(span)
            returned = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                extra = None
                if counts is not None and returned:
                    try:
                        extra = counts(args, kwargs, result)
                    except Exception:  # a changed signature must not stop the run
                        tracer.counter_errors += 1
                tracer.spans.append((span, name, parent, start, end, extra))

        return traced

    def run_root(self, fn, *args):
        """Call fn inside the root span and return its result."""
        self._stack().append(ROOT)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._stack().pop()
            self.spans.append((ROOT, ROOT_NAME, None, start, end, None))


def install(tracer: Tracer) -> list[str]:
    """Patch every target that exists; returns the targets that do not."""
    importlib.import_module("mbl")
    namespaces = [
        mod for key, mod in list(sys.modules.items()) if key == "mbl" or key.startswith("mbl.")
    ]
    missing = []
    for module_name, attr, span_name, counts in TARGETS:
        module = sys.modules.get(module_name)
        owner_name, _, method = attr.partition(".")
        owner = getattr(module, owner_name, None) if module is not None else None
        if owner is None or (method and not hasattr(owner, method)):
            missing.append(f"{module_name}.{attr}")
            continue
        if method:
            original = getattr(owner, method)
            setattr(owner, method, tracer.wrap(original, span_name, counts))
            continue
        wrapped = tracer.wrap(owner, span_name, counts)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is owner:
                    setattr(ns, key, wrapped)
    return missing


def feeds(span_name: str) -> list[str]:
    """Targets that produce spans of this name (to tell missing from idle)."""
    return [f"{m}.{a}" for m, a, name, _ in TARGETS if name == span_name]


def attribute(spans: list[tuple]) -> dict[int, float]:
    """Self time in seconds per span; the values add up to the root's duration.

    Each elapsed interval is split equally among the open spans that have
    no open child at that moment.
    """
    parent = {s[0]: s[2] for s in spans}
    events = []
    for span, _, _, start, end, _ in spans:
        events.append((start, 1, span))
        events.append((end, 0, -span))
    # ends before starts at equal times; children end before their parents
    events.sort()
    open_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    leaves: set[int] = set()
    self_ns: dict[int, float] = defaultdict(float)
    last = None
    for t, kind, key in events:
        if leaves and last is not None and t > last:
            share = (t - last) / len(leaves)
            for span in leaves:
                self_ns[span] += share
        last = t
        span = key if kind else -key
        up = parent[span]
        if kind:
            if up in active:
                open_children[up] += 1
                leaves.discard(up)
            active.add(span)
            leaves.add(span)
        else:
            active.discard(span)
            leaves.discard(span)
            if up in active:
                open_children[up] -= 1
                if open_children[up] == 0:
                    leaves.add(up)
    return {span: self_ns[span] / 1e9 for span in parent}


def layer_metrics(spans: list[tuple], missing: list[str]) -> dict[str, float | None]:
    """Per-layer metrics of one traced command (sums; rates are derived later)."""
    self_s = attribute(spans)
    by_id = {s[0]: s for s in spans}
    name = {s[0]: s[1] for s in spans}
    children: dict[int, list[int]] = defaultdict(list)
    for span, _, up, *_ in spans:
        if up is not None:
            children[up].append(span)
    inclusive = dict(self_s)
    for span in sorted(by_id, reverse=True):  # children open after their parents
        up = by_id[span][2]
        if up is not None:
            inclusive[up] += inclusive[span]

    def total(metric_of, names):
        return math.fsum(metric_of[s] for s in by_id if name[s] in names)

    def count(key, names, where=lambda s: True):
        return sum(
            (by_id[s][5] or {}).get(key, 0) for s in by_id if name[s] in names and where(s)
        )

    def under(span, names):
        return name.get(by_id[span][2]) in names

    def has_cells_below(span):
        stack = list(children[span])
        while stack:
            s = stack.pop()
            if (by_id[s][5] or {}).get("cells"):
                return True
            stack.extend(children[s])
        return False

    out: dict[str, float | None] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = math.fsum(
            v for s, v in self_s.items() if name[s].split(".")[0] == layer
        )
    out.update(
        {
            "rademacher.sign_s": total(self_s, ("rademacher.sign",)),
            "rademacher.sign_bits": count("bits", ("rademacher.sign",)),
            "rademacher.oracle_s": math.fsum(
                inclusive[s] for s in by_id if name[s] in ORACLES and under(s, ESTIMATORS)
            ),
            "rademacher.reduce_s": total(self_s, ESTIMATORS),
            "rademacher.trials": count("trials", ("rademacher.mc",)),
            "rademacher.batches": sum(
                1 for s in by_id if name[s] == "rademacher.sign" and under(s, ("rademacher.mc",))
            ),
            "rademacher.exact_vectors": count("vectors", ("rademacher.exact",)),
            "lowerbound.select_t_s": total(inclusive, ("lowerbound.select_t",)),
            "lowerbound.select_t_calls": sum(1 for s in by_id if name[s] == "lowerbound.select_t"),
            "lowerbound.t_candidates": sum(
                1
                for s in by_id
                if name[s] == "lowerbound.reference" and under(s, ("lowerbound.select_t",))
            ),
            "lowerbound.dp_s": total(self_s, ("lowerbound.dp",)),
            "lowerbound.dp_cells": count(
                "cells", ("lowerbound.dp",), lambda s: not has_cells_below(s)
            ),
            "kernel.gram_s": total(self_s, ("kernel.gram",)),
            "kernel.gram_bytes": count("bytes", ("kernel.gram",)),
            "kernel.psd_s": total(self_s, ("kernel.psd",)),
            "kernel.psd_calls": sum(1 for s in by_id if name[s] == "kernel.psd"),
            "kernel.quad_s": total(self_s, ("kernel.quad",)),
            "kernel.quad_flops": count("flops", ("kernel.quad",)),
            "margin.instance_s": total(self_s, ("margin.instance",)),
            "margin.materialize_s": total(self_s, ("margin.materialize",)),
            "margin.rows": count("rows", ("margin.materialize",)),
            "margin.lemma1_s": total(self_s, ("margin.lemma1",)),
            "margin.cdf_s": total(self_s, ("margin.cdf",)),
            "bounds.thm1_s": total(self_s, ("bounds.thm1",)),
            "bounds.thm2_s": total(self_s, ("bounds.thm2",)),
            "bounds.compare_s": total(self_s, ("bounds.compare",)),
            "synth.read_s": total(self_s, ("synth.read",)),
            "synth.read_bytes": count("bytes", ("synth.read",)),
            "synth.generate_s": total(self_s, ("synth.generate",)),
            "trace.spans": len(spans),
        }
    )
    # A metric fed only by targets that no longer exist is missing, not zero.
    sources = {
        "rademacher.sign": ("rademacher.sign_s", "rademacher.sign_bits", "rademacher.batches"),
        "rademacher.mc": ("rademacher.trials",),
        "rademacher.exact": ("rademacher.exact_vectors",),
        "lowerbound.select_t": ("lowerbound.select_t_s", "lowerbound.select_t_calls"),
        "lowerbound.reference": ("lowerbound.t_candidates",),
        "lowerbound.dp": ("lowerbound.dp_s", "lowerbound.dp_cells"),
        "kernel.gram": ("kernel.gram_s", "kernel.gram_bytes"),
        "kernel.psd": ("kernel.psd_s", "kernel.psd_calls"),
        "kernel.quad": ("kernel.quad_s", "kernel.quad_flops"),
        "margin.instance": ("margin.instance_s",),
        "margin.materialize": ("margin.materialize_s", "margin.rows"),
        "margin.lemma1": ("margin.lemma1_s",),
        "margin.cdf": ("margin.cdf_s",),
        "bounds.thm1": ("bounds.thm1_s",),
        "bounds.thm2": ("bounds.thm2_s",),
        "bounds.compare": ("bounds.compare_s",),
        "synth.read": ("synth.read_s", "synth.read_bytes"),
        "synth.generate": ("synth.generate_s",),
    }
    gone = set(missing)
    for span_name, metrics in sources.items():
        if all(target in gone for target in feeds(span_name)):
            for metric in metrics:
                out[metric] = None
    return out
