"""Span tracing of sbergsma's public functions, installed from outside.

Nothing in the package is edited: each traced function is replaced, in every
``sbergsma`` module namespace that holds it, by one wrapper that records a
span (name, start, end, parent) and the counts named in ``TRACED``.  Callers
that looked the function up by name (``nulldist.sb_values_batch``,
``inference.stream``, ...) therefore go through the wrapper.  Spans stay in
memory; :func:`layer_metrics` reduces them when the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _batch_counts(args, kwargs, result):
    B, T, R = _arg(args, kwargs, 0, "panels").shape
    # the B x R x T x T centred-kernel stack the batch path materialises
    return {"reps": B, "bytes_computed": B * R * T * T * 8}


def _asym_counts(args, kwargs, result):
    spectra = list(_arg(args, kwargs, 0, "spectra"))
    n_draws = _arg(args, kwargs, 2, "n_draws", 10_000)
    R, K = len(spectra), spectra[0].eigenvalues.size
    return {"normals_computed": R * (R - 1) // 2 * n_draws * K * K}


def _sample_counts(args, kwargs, result):
    return {"values": int(result.size)}


def _bootstrap_counts(args, kwargs, result):
    return {"resamples": _arg(args, kwargs, 2, "B", 1000)}


def _write_counts(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 1, "text").encode())}


# (module, attribute path, count hook); metric prefix is "<module>.<function>"
TRACED = [
    ("statistic", "sb_values_batch", _batch_counts),
    ("statistic", "sb_statistic", None),
    ("bergsma", "panel_kernel_stack", None),
    ("bergsma", "pairwise_kappa", None),
    ("rng", "stream", None),
    ("reference", "ReferenceDistribution.sample", _sample_counts),
    ("reference", "ReferenceDistribution.kernel", None),
    ("nulldist", "monte_carlo_null", None),
    ("nulldist", "nystrom_eigenvalues", None),
    ("nulldist", "asymptotic_null_sample", _asym_counts),
    ("nulldist", "p_value", None),
    ("depmodels", "theta_sweep", None),
    ("inference", "test_spatial_independence", None),
    ("inference", "bootstrap_ci", _bootstrap_counts),
    ("inference", "pairwise_screen", None),
    ("inference", "independence_rho_quantile", None),
    ("io", "load_panel", None),
    ("io", "load_weights", None),
    ("io", "atomic_write_text", _write_counts),
    ("cli", "main", None),
]

# counts that must repeat exactly between two runs of one commit and seed
EXACT_COUNTS = ("calls", "reps", "bytes_computed", "normals_computed", "values",
                "resamples", "bytes")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


class Tracer:
    """In-memory span recorder shared by every wrapper it installs."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent_index, counts]
        self.absent = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span hangs off the span open in the main thread
            parents = stack or self._main_stack
            span = [name, 0.0, 0.0, parents[-1] if parents else None, None]
            with self._lock:
                self.spans.append(span)
                stack.append(len(self.spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in TRACED wherever the package holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sbergsma" or n.startswith("sbergsma.")]
        for module, attr, count in TRACED:
            name = span_name(module, attr)
            owner = sys.modules.get(f"sbergsma.{module}")
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, count)
            setattr(owner, leaf, wrapper)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans, absent=()) -> dict:
    """Per-function calls, total time, self time and counts from raw spans."""
    children = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for module, attr, _ in TRACED:
        name = span_name(module, attr)
        out[name] = {"calls": 0, "s": 0.0, "self_s": 0.0}
    for i, (name, start, end, _, counts) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += (end - start) - _covered(children.get(i, ()), start, end)
        for key, value in (counts or {}).items():
            if key == "bytes_computed":
                row[key] = max(row.get(key, 0), value)
            else:
                row[key] = row.get(key, 0) + value
    for name in absent:
        out[name]["absent"] = True
    return out
