"""Span tracing around the public functions of each bridgerec module.

While installed, a Tracer replaces each target function with a wrapper by
rebinding every name under which a bridgerec module (or a class, for
methods) holds the original object, so calls made through ``from .x import
f`` aliases are seen too. ``uninstall`` puts the originals back; spans and
counts accumulate over any number of install/uninstall cycles. Spans are
kept in memory as (name, start, end, parent, run id) tuples and written once
by ``write``; nothing else is recorded.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


# Counts recorded at a span's boundary: names, and a function of the call's
# positional arguments and result that returns one value per name.
ROWS = (("rows",), lambda args, result: (result.n_ratings,))
ELEMS = (("elems",), lambda args, result: (sum(np.size(g) for g in args[1].values()),))
SAMPLES = (("samples", "skipped"),
           lambda args, result: (len(args[5]) - result[2], result[2]))
BYTES = (("bytes",), lambda args, result: (sum(t.nbytes for t in result[0].values()),))


# (span name, defining module, attribute path, counts or None).
# generate_synthetic lives in pipeline.py but is the data layer's job.
SPANS = (
    ("data.load_domain", "bridgerec.data", "load_domain", ROWS),
    ("data.generate_synthetic", "bridgerec.pipeline", "generate_synthetic", None),
    ("data.make_split", "bridgerec.data", "make_split", None),
    ("models.pretrain", "bridgerec.models", "pretrain", None),
    ("models.cmf_train", "bridgerec.models", "cmf_train", None),
    ("models.loss_and_grads", "bridgerec.models", "loss_and_grads", None),
    ("nn.Adam.step", "bridgerec.nn", "Adam.step", ELEMS),
    ("bridge.build_context", "bridgerec.bridge", "build_context", None),
    ("bridge.train_common_bridge", "bridgerec.bridge", "train_common_bridge", None),
    ("bridge.train_meta", "bridgerec.bridge", "train_meta", None),
    ("bridge.train_meta_mapping", "bridgerec.bridge", "train_meta_mapping", None),
    ("bridge.task_oriented_loss", "bridgerec.bridge", "task_oriented_loss", SAMPLES),
    ("bridge.mapping_oriented_loss", "bridgerec.bridge", "mapping_oriented_loss", None),
    ("bridge.transform_user", "bridgerec.bridge", "transform_user", None),
    ("bridge.attention_table", "bridgerec.bridge", "attention_table", None),
    ("pipeline.run_cold", "bridgerec.pipeline", "run_cold", None),
    ("pipeline.run_warm", "bridgerec.pipeline", "run_warm", None),
    ("pipeline.run_suite", "bridgerec.pipeline", "run_suite", None),
    ("cli.main", "bridgerec.cli", "main", None),
    ("checkpoint.load_tensors", "bridgerec.checkpoint", "load_tensors", BYTES),
)

# Called thousands of times per batch inside the bridge kernels: counted
# only, because a span each would cost more than the call it measures.
COUNTED = (
    ("nn.TwoLayerNet.forward_cached", "bridgerec.nn", "TwoLayerNet.forward_cached"),
    ("nn.TwoLayerNet.backward", "bridgerec.nn", "TwoLayerNet.backward"),
)

ROOT = "workload"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, dict[str, float]] = defaultdict(dict)
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent, time.perf_counter()

    def _close(self, name, idx, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.run_id)

    def root(self, fn):
        """Run ``fn()`` as one traced iteration under a root span."""
        idx, parent, start = self._open()
        try:
            return fn()
        finally:
            self._close(ROOT, idx, parent, start)
            self.run_id += 1

    def _span_wrapper(self, name, fn, counter):
        counts = self.counts[name]
        keys, count = counter or ((), None)
        for key in keys:
            counts.setdefault(key, 0.0)

        def traced(*args, **kwargs):
            idx, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, idx, parent, start)
            if count is not None:
                for key, value in zip(keys, count(args, result)):
                    counts[key] += value
            return result
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts[name]
        counts.setdefault("calls", 0.0)

        def counted(*args, **kwargs):
            counts["calls"] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ------------------------------------------------------

    def _rebind(self, module_name, path, make):
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = make(original)
        if outer:  # a method: the class is the only place it is looked up
            holders = [owner]
        else:
            holders = [m for n, m in list(sys.modules.items())
                       if n == "bridgerec" or n.startswith("bridgerec.")]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._restore.append((holder, key, original))

    def install(self) -> None:
        for name, module, path, counter in SPANS:
            self._rebind(module, path,
                         lambda fn, n=name, c=counter: self._span_wrapper(n, fn, c))
        for name, module, path in COUNTED:
            self._rebind(module, path, lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, run in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run": run}) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, per traced iteration (durations are per call).

        Self time is a span's duration minus the time its children cover.
        """
        n = self.run_id
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "durations": []})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            entry = layers[name]
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
            entry["durations"].append(end - start)

        out = {}
        for name, *_ in SPANS:
            entry = layers[name]
            durations = sorted(entry["durations"]) or [0.0]
            pct = tail_percentile(len(entry["durations"]))
            out[f"{name}.calls"] = len(entry["durations"]) / n
            out[f"{name}.s"] = entry["s"] / n
            out[f"{name}.self_s"] = entry["self_s"] / n
            out[f"{name}.p50_ms"] = durations[len(durations) // 2] * 1e3
            out[f"{name}.tail_ms"] = durations[min(len(durations) - 1,
                                                   int(pct / 100.0 * len(durations)))] * 1e3
            out[f"{name}.tail_pct"] = pct
        for name, counts in self.counts.items():
            out.update({f"{name}.{key}": value / n for key, value in counts.items()})
        task = self.counts["bridge.task_oriented_loss"]
        attempted = task["samples"] + task["skipped"]
        out["bridge.useful_frac"] = task["samples"] / attempted if attempted else 0.0
        out["trace.iterations"] = n
        out["trace.spans"] = len(self.spans) / n
        out["trace.unattributed_s"] = layers[ROOT]["self_s"] / n
        out["trace.self_sum_s"] = sum(e["self_s"] for k, e in layers.items() if k != ROOT) / n
        return out


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0
