"""Instrumentation of the mmsaliency layers, installed from outside the package.

`instrument(trace)` wraps the oracle handed to `shapley_mi` and
`generate_maps` in an `OracleProxy`, which counts oracle evaluations. With
`trace=True` it also wraps the public functions in `LAYER_FUNCTIONS` and
records one span per call, plus the duration of every oracle call. Nothing
under `src/` changes; the wrappers are removed when the context exits.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

import mmsaliency  # noqa: F401  (loads every layer module)
from mmsaliency.oracle import ExternalCommandOracle

# Public functions timed per layer. The oracle layer is measured through
# OracleProxy instead, and the cli layer from the parent process.
LAYER_FUNCTIONS = {
    "synthgen": ("generate_dataset",),
    "tensorio": (
        "load_manifest",
        "save_manifest",
        "load_dataset",
        "read_volume",
        "read_mask",
        "read_saliency",
        "write_volume",
        "write_mask",
        "write_saliency",
    ),
    "ablate": ("shapley_mi",),
    "saliency": (
        "generate_maps",
        "occlusion",
        "feature_ablation",
        "feature_permutation",
        "lime",
        "shapley_sampling",
        "kernel_shap",
    ),
    "metrics": ("msfi", "iou", "estimated_mi", "kendall_tau_b", "friedman", "nemenyi"),
    "report": ("summarize", "render_matrix", "summary_csv_rows"),
}
MMV_READS = ("read_volume", "read_mask", "read_saliency")
MMV_WRITES = ("write_volume", "write_mask", "write_saliency")
ORACLE_USERS = ("shapley_mi", "generate_maps")


class Recorder:
    """Oracle evaluation count; spans and oracle call times when tracing.

    A span is a dict with layer, name, key, size, start, end, parent (index
    or None), and the oracle seconds and evaluations made while it was open.
    The key is the policy or method of a call; the size is its sample count
    or MMV bytes.
    """

    def __init__(self, trace):
        self.trace = trace
        self.evals = 0
        self.spans = []
        self.oracle_s = {"builtin": [], "ext": []}
        self.oracle_items = {"builtin": 0, "ext": 0}
        self._open = []

    def call(self, layer, name, key, size, fn, args, kwargs):
        span = {
            "layer": layer,
            "name": name,
            "key": key,
            "size": size,
            "parent": self._open[-1] if self._open else None,
            "oracle_s": 0.0,
            "evals": 0,
        }
        self._open.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def oracle(self, kind, n_items, fn, arg):
        self.evals += n_items
        if not self.trace:
            return fn(arg)
        start = time.perf_counter()
        try:
            return fn(arg)
        finally:
            elapsed = time.perf_counter() - start
            self.oracle_s[kind].append(elapsed)
            self.oracle_items[kind] += n_items
            for i in self._open:
                self.spans[i]["oracle_s"] += elapsed
                self.spans[i]["evals"] += n_items

    def to_json(self):
        return {
            "evals": self.evals,
            "spans": self.spans,
            "oracle_s": self.oracle_s,
            "oracle_items": self.oracle_items,
        }


class OracleProxy:
    """Counts, and when tracing times, every call to the wrapped oracle.

    `predict_batch` exists only when the wrapped oracle has one, so
    `predict_all` takes the same path with the proxy as without it.
    """

    def __init__(self, inner, recorder):
        self._inner = inner
        self._recorder = recorder
        self._kind = "ext" if isinstance(inner, ExternalCommandOracle) else "builtin"
        if hasattr(inner, "predict_batch"):
            self.predict_batch = self._predict_batch

    def predict(self, volume):
        return self._recorder.oracle(self._kind, 1, self._inner.predict, volume)

    def _predict_batch(self, items):
        items = list(items)
        return self._recorder.oracle(
            self._kind, len(items), self._inner.predict_batch, items
        )


def _describe(name, args, kwargs):
    """The (key, size) of a span; a write's size is filled in after the call."""
    if name == "shapley_mi":
        policy = args[2] if len(args) > 2 else kwargs["policy"]
        return policy.variant.value, None
    if name == "generate_maps":
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        key = cfg.method.value + (".exhaustive" if cfg.exhaustive else "")
        return key, len(args[0])
    if name == "generate_dataset":
        return None, args[0].n_samples
    if name in MMV_READS:
        return None, os.path.getsize(args[0])
    return None, None


def _wrap(recorder, layer, fn, trace):
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name in ORACLE_USERS:
            if len(args) > 1:
                args = (args[0], OracleProxy(args[1], recorder), *args[2:])
            else:
                kwargs["oracle"] = OracleProxy(kwargs["oracle"], recorder)
        if not trace:
            return fn(*args, **kwargs)
        index = len(recorder.spans)
        key, size = _describe(name, args, kwargs)
        result = recorder.call(layer, name, key, size, fn, args, kwargs)
        if name in MMV_WRITES:
            recorder.spans[index]["size"] = os.path.getsize(args[1])
        return result

    return wrapper


@contextlib.contextmanager
def instrument(trace):
    """Install the wrappers into every loaded mmsaliency module; yield the Recorder."""
    recorder = Recorder(trace)
    modules = [
        m
        for n, m in sys.modules.items()
        if n == "mmsaliency" or n.startswith("mmsaliency.")
    ]
    patched = []
    for layer, names in LAYER_FUNCTIONS.items():
        home = sys.modules[f"mmsaliency.{layer}"]
        for name in names:
            if not trace and name not in ORACLE_USERS:
                continue
            original = getattr(home, name)
            wrapper = _wrap(recorder, layer, original, trace)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
    try:
        yield recorder
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
