"""Span wrappers around the public functions of each apsflow layer.

The benchmark installs these wrappers only for its traced passes.  A span
records its id, its parent's id, its name, and its start and end times;
spans stay in memory and are written out when the run ends.  A layer's
self time is its span's duration minus the time its child spans cover.

Besides replacing each function in its defining module, ``install`` also
replaces every other reference to it inside the ``apsflow`` package (for
example ``spectral_flow`` imported into ``apsindex``), or nested calls
would be missed.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

from apsflow import apsindex, evolution, families, matrixcore, reporting, spectralflow


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _propagate_counts(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    substeps = a["intervals"] * a["steps"]
    generators = 2 if a["scheme"] == evolution.SCHEME_CF4 else 1
    return {
        "evolution.propagate.substeps": substeps,
        "evolution.propagate.flop_computed": substeps * generators * a["family"].dim ** 3,
    }


def _rank_kernel_counts(fn, args, kwargs, result):
    rows, cols = getattr(_bound(fn, args, kwargs)["m"], "shape", (0, 0))
    return {"matrixcore.rank_kernel.cells": rows * cols}


def _spectral_flow_counts(fn, args, kwargs, result):
    return {"spectralflow.partition_segments": result.partition.segments}


def _canonical_json_counts(fn, args, kwargs, result):
    return {"reporting.report_bytes": len(result.encode("utf-8"))}


# (module, function, span name, counter)
LAYER_FUNCTIONS = (
    (matrixcore, "eigh", "matrixcore.eigh", None),
    (matrixcore, "rank_kernel", "matrixcore.rank_kernel", _rank_kernel_counts),
    (evolution, "propagate", "evolution.propagate", _propagate_counts),
    (evolution, "nonunitary_propagate", "evolution.nonunitary_propagate", None),
    (spectralflow, "spectral_flow", "spectralflow.spectral_flow", _spectral_flow_counts),
    (spectralflow, "flowind_check", "spectralflow.flowind_check", None),
    (apsindex, "lorentzian_main_check", "apsindex.lorentzian_main_check", None),
    (apsindex, "lorentzian_index_projection", "apsindex.transport_routes", None),
    (apsindex, "lorentzian_index_subspace", "apsindex.transport_routes", None),
    (apsindex, "riemannian_main_check", "apsindex.riemannian_main_check", None),
    (apsindex, "riemannian_index_discretized", "apsindex.riemannian_index_discretized", None),
    (apsindex, "riemannian_kernel_shooting", "apsindex.riemannian_kernel_shooting", None),
    (reporting, "canonical_json", "reporting.canonical_json", _canonical_json_counts),
)
# OperatorFamily methods, both reported as one layer
FAMILY_METHODS = (("at", "families.at"), ("derivative_at", "families.at"))


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            if counter is not None:
                counts.update(counter(fn, args, kwargs, result))
            return result

        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span of its own."""
        return self.wrap(name, fn)(*args, **kwargs)

    def take(self) -> tuple[list, Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def install(tracer: Tracer):
    """Wrap every layer function; returns a callable that restores the originals."""
    replacements = {}
    for module, attr, name, counter in LAYER_FUNCTIONS:
        original = getattr(module, attr)
        replacements[id(original)] = (original, tracer.wrap(name, original, counter))
    restore = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "apsflow" and not mod_name.startswith("apsflow."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                restore.append((module, attr, value))
                setattr(module, attr, hit[1])
    cls = families.OperatorFamily
    for attr, name in FAMILY_METHODS:
        original = cls.__dict__[attr]
        restore.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(name, original))

    def uninstall():
        for owner, attr, value in restore:
            setattr(owner, attr, value)

    return uninstall


def layer_totals(spans) -> tuple[dict[str, float], dict[str, float], Counter]:
    """Per-name total duration, self time and call count."""
    duration: dict[str, float] = defaultdict(float)
    covered: dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end in spans:
        duration[name] += end - start
        if parent >= 0:
            covered[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for sid, parent, name, start, end in spans:
        self_time[name] += (end - start) - covered[sid]
        calls[name] += 1
    return duration, self_time, calls


def write_spans(path, passes) -> None:
    """Write ``[(pass_number, spans), ...]`` as gzip-compressed JSON lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for number, spans in passes:
            for sid, parent, name, start, end in spans:
                fh.write(
                    json.dumps(
                        {"pass": number, "id": sid, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                )
                fh.write("\n")
