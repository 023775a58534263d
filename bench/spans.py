"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

`instrument(tracer)` wraps matcount's public layer functions by
rebinding every module attribute that holds them, so a function that
another module imported by name (`exact.build_tau_table`,
`casework.count_box`, ...) is wrapped as well.  Spans are kept in
memory and reduced when the traced run ends.

A span's self time is its duration minus the part of it that its child
spans cover.  A span opened in a thread with no open span of its own
(a `--jobs` worker) becomes a child of the current op's root span.
"""

from __future__ import annotations

import inspect
import math
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from functools import wraps


def _u_scanned(key: str):
    """Counter of the integers u in the query's range (U, U + X]."""
    return lambda bound, result: {
        key: math.floor(bound["query"].U + bound["query"].X) - math.floor(bound["query"].U)
    }


def _build_counts(bound, result):
    return {"tau_tables.cells": bound["N"] ** 2 + 1,
            "tau_tables.bytes_computed": result.counts.nbytes}


# module -> function -> (layer, counter).  A counter maps the call's bound
# arguments and result to counts added to the span.
LAYERS = {
    "matcount.tau_tables": {
        "build_tau_table": ("tau_tables.build", _build_counts),
        "tau_moment": ("tau_tables.moment", None),
        "shifted_sum": ("tau_tables.shifted", None),
    },
    "matcount.exact": {
        "fast_count": ("exact.fast_count", None),
        "sign_class_count": ("exact.sign_class", None),
    },
    "matcount.asymptotics": {
        "report": ("asymptotics.report", None),
        "fit_error_exponent": ("asymptotics.fit", None),
        "fit_linear_in_logN": ("asymptotics.fit", None),
        "discriminate_shifted": ("asymptotics.fit", None),
    },
    "matcount.hyperbola": {
        "box_report": ("hyperbola.box", None),
        "count_box": ("hyperbola.box", _u_scanned("hyperbola.box_u")),
        "main_term_box": ("hyperbola.box", _u_scanned("hyperbola.box_u")),
        "curve_report": ("hyperbola.curve", None),
        "count_under_curve": ("hyperbola.curve", _u_scanned("hyperbola.curve_u")),
        "main_term_curve": ("hyperbola.curve", _u_scanned("hyperbola.curve_u")),
    },
    "matcount.casework": {
        "region_sum_G": ("casework.direct", lambda b, r: {"casework.cells": b["H"] ** 2}),
        "region_sum_J": ("casework.direct", lambda b, r: {"casework.cells": b["H"] ** 2}),
        "region_sum_G_via_hyperbola": ("casework.hyper", None),
        "region_sum_J_via_hyperbola": ("casework.hyper", None),
    },
    "matcount.arith": {
        "sieve": ("arith.sieve", lambda b, r: {"arith.sieve_cells": b["limit"]}),
    },
    "matcount.lemmas": {
        "xy_sum": ("lemmas.xy_sum", None),
    },
    "matcount.cli": {
        "lemma_grid_rows": ("lemmas.grid", None),
        "random_hyperbola_queries": ("cli.queries", None),
    },
}

# Per-layer metrics and their units; `<layer>_s` is the layer's self
# time and `<layer>_calls` counts its outermost spans.
PER_LAYER = {
    "tau_tables.build_s": "s",
    "tau_tables.build_calls": "count",
    "tau_tables.build_reuse": "ratio",
    "tau_tables.cells": "count",
    "tau_tables.bytes_computed": "B",
    "tau_tables.moment_s": "s",
    "tau_tables.shifted_s": "s",
    "tau_tables.peak_alloc_mb": "MB",
    "exact.fast_count_s": "s",
    "exact.fast_count_calls": "count",
    "exact.fast_count_peak_alloc_mb": "MB",
    "exact.sign_class_s": "s",
    "exact.sign_class_calls": "count",
    "asymptotics.report_s": "s",
    "asymptotics.fit_s": "s",
    "hyperbola.box_s": "s",
    "hyperbola.box_calls": "count",
    "hyperbola.box_u": "count",
    "hyperbola.curve_s": "s",
    "hyperbola.curve_calls": "count",
    "hyperbola.curve_u": "count",
    "casework.direct_s": "s",
    "casework.hyper_s": "s",
    "casework.cells": "count",
    "arith.sieve_s": "s",
    "arith.sieve_calls": "count",
    "arith.sieve_cells": "count",
    "lemmas.xy_sum_s": "s",
    "lemmas.grid_s": "s",
    "cli.queries_s": "s",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}

MB = 1 << 20


class Span:
    __slots__ = ("layer", "parent", "children", "start", "end", "counts", "args", "peak")

    def __init__(self, layer: str, parent: Span | None):
        self.layer = layer
        self.parent = parent
        self.children: list[Span] = []
        self.start = self.end = 0.0
        self.counts: dict[str, int] = {}
        self.args: dict = {}
        self.peak = 0  # traced bytes above the entry level, allocation pass only

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the union of the children's intervals, each
        clipped to this span (thread children may overlap)."""
        covered = 0.0
        lo = hi = self.start
        for s, e in sorted((c.start, c.end) for c in self.children):
            s, e = max(s, self.start), min(e, self.end)
            if e <= s:
                continue
            if s > hi:
                covered += hi - lo
                lo = s
            hi = max(hi, e)
        return self.duration - covered - (hi - lo)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Collects one root span per op.  With `alloc`, also records each
    span's tracemalloc peak (the caller starts tracemalloc)."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.roots: list[Span] = []
        self._root: Span | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._frames: dict[Span, list[int]] = {}  # open span -> [entry bytes, highest bytes]

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _sync_peak(self) -> int:
        """Fold the peak since the last reset into every open frame."""
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._frames.values():
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        return current

    @contextmanager
    def _open(self, span: Span):
        stack = self._stack()
        frame = None
        if self.alloc:
            with self._lock:
                current = self._sync_peak()
                frame = self._frames[span] = [current, current]
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if frame is not None:
                with self._lock:
                    self._sync_peak()
                    del self._frames[span]
                span.peak = frame[1] - frame[0]

    @contextmanager
    def op(self, name: str):
        root = Span(name, None)
        self.roots.append(root)
        self._root = root
        try:
            with self._open(root):
                yield root
        finally:
            self._root = None

    @contextmanager
    def span(self, layer: str):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = Span(layer, parent)
        if parent is not None:
            with self._lock:
                parent.children.append(span)
        with self._open(span):
            yield span


def _wrap(tracer: Tracer, fn, layer: str, counter):
    sig = inspect.signature(fn)

    @wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(layer) as span:
            result = fn(*args, **kwargs)
        if counter is not None:  # outside the span, so counting costs the layer nothing
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span.args = bound.arguments
            span.counts = counter(bound.arguments, result)
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Route every call of a LAYERS function through `tracer`, in every
    loaded matcount module that binds it; restore the originals on exit.
    The caller imports `matcount.cli` first."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "matcount"]
    patched = []
    for home, funcs in LAYERS.items():
        module = sys.modules[home]
        for fname, (layer, counter) in funcs.items():
            original = getattr(module, fname)
            wrapper = _wrap(tracer, original, layer, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
    try:
        yield tracer
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


def layer_metrics(roots: list[Span]) -> dict[str, float]:
    """Per-layer metrics (time, calls and counts) summed over op roots."""
    out = {name: 0 for name in PER_LAYER}
    distinct = builds = 0
    for root in roots:
        out["cli.self_s"] += root.self_time()
        sizes = set()
        for span in root.walk():
            if span is root:
                continue
            out[f"{span.layer}_s"] = out.get(f"{span.layer}_s", 0) + span.self_time()
            if span.parent.layer != span.layer:
                key = f"{span.layer}_calls"
                out[key] = out.get(key, 0) + 1
            for key, n in span.counts.items():
                out[key] += n
            if span.layer == "tau_tables.build":
                sizes.add(span.args["N"])
                builds += 1
        distinct += len(sizes)
    out["tau_tables.build_reuse"] = distinct / builds if builds else 0.0
    return {k: v for k, v in out.items() if k in PER_LAYER}


def peak_metrics(roots: list[Span]) -> dict[str, float]:
    """Highest per-span traced allocation peak of the measured layers."""
    tau = fast = 0
    for root in roots:
        for span in root.walk():
            if span.layer.startswith("tau_tables."):
                tau = max(tau, span.peak)
            elif span.layer == "exact.fast_count":
                fast = max(fast, span.peak)
    return {"tau_tables.peak_alloc_mb": tau / MB, "exact.fast_count_peak_alloc_mb": fast / MB}
