"""Span tracing by wrapping kummerkit's public functions from outside.

``layers.json`` names the functions. ``Tracer.install`` replaces each one in
every loaded kummerkit namespace that holds it (so ``cli.compute_certificate``
and ``kummer.compute_certificate`` are both wrapped, and calls inside a module
go through the wrapper too) and ``uninstall`` puts the originals back. Spans
stay in memory as lists ``[name, parent, request, start_ns, end_ns, size]``;
``parent`` is the index of the enclosing span or -1, and every request has a
root span named ``request``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = json.loads(Path(__file__).with_name("layers.json").read_text())
ROOT_SPAN = "request"
OVERHEAD_METRIC = "trace.overhead_ratio"
UNITS = {"calls": "count/req", "self_s": "s/req", "cells": "cells/req", "hit_ratio": "ratio"}
BETTER = {"calls": "lower", "self_s": "lower", "cells": "lower", "hit_ratio": "higher"}
# work counts recorded at a span's start, from its arguments
SIZERS = {"linalg.rref": lambda m: m.nrows * m.ncols}


def per_layer_schema() -> list[dict]:
    """The per-layer metrics, as BENCHMARK.json lists them."""
    out = [
        {"name": f"{entry['span']}.{metric}", "unit": UNITS[metric], "better": BETTER[metric]}
        for entry in LAYERS["layers"]
        for metric in entry["metrics"]
    ]
    out.append({"name": OVERHEAD_METRIC, "unit": "ratio", "better": "lower"})
    return out


def _targets(modules: dict):
    """(span name, original, namespaces holding it) for each layers.json entry."""
    for entry in LAYERS["layers"]:
        layer, _, attr = entry["span"].partition(".")
        owner = modules[f"kummerkit.{layer}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            yield entry["span"], vars(cls)[meth], [cls]
        else:
            yield entry["span"], getattr(owner, attr), list(modules.values())


class Tracer:
    """Records spans while installed; usable as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.requests = 0
        self._stack: list[int] = []
        self._request = -1
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        sizer = SIZERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = sizer(*args, **kwargs) if sizer else 0
            span = [name, stack[-1] if stack else -1, self._request, clock(), 0, size]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()

        return wrapper

    def install(self):
        modules = {k: m for k, m in sys.modules.items() if k == "kummerkit" or k.startswith("kummerkit.")}
        for name, original, namespaces in _targets(modules):
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patches.append((ns, key, original))

    def uninstall(self):
        while self._patches:
            ns, key, original = self._patches.pop()
            setattr(ns, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @contextmanager
    def request(self):
        """The root span of one request."""
        self._request += 1
        self.requests += 1
        span = [ROOT_SPAN, -1, self._request, time.perf_counter_ns(), 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            self._stack.pop()
            span[4] = time.perf_counter_ns()

    def self_times(self) -> list[int]:
        """Each span's duration minus the part its direct children cover."""
        out = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]] -= s[4] - s[3]
        return out

    def self_time_gap_ns(self) -> int:
        """Largest |sum of a request's span self times - its root duration|."""
        sums: dict[int, int] = {}
        roots: dict[int, int] = {}
        for s, own in zip(self.spans, self.self_times()):
            sums[s[2]] = sums.get(s[2], 0) + own
            if s[0] == ROOT_SPAN:
                roots[s[2]] = s[4] - s[3]
        return max((abs(sums[r] - roots[r]) for r in roots), default=0)

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric, per request where it is a total."""
        per = max(self.requests, 1)
        calls: dict[str, int] = {}
        own: dict[str, int] = {}
        size: dict[str, int] = {}
        child_calls: dict[tuple, int] = {}
        for s, t in zip(self.spans, self.self_times()):
            name = s[0]
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0) + t
            size[name] = size.get(name, 0) + s[5]
            if s[1] >= 0:
                key = (self.spans[s[1]][0], name)
                child_calls[key] = child_calls.get(key, 0) + 1
        out = {}
        for entry in LAYERS["layers"]:
            name = entry["span"]
            for metric in entry["metrics"]:
                if metric == "calls":
                    value = calls.get(name, 0) / per
                elif metric == "self_s":
                    value = own.get(name, 0) / per / 1e9
                elif metric == "cells":
                    value = size.get(name, 0) / per
                else:
                    attempts = child_calls.get((name, entry["hit_per"]), 0)
                    value = calls.get(name, 0) / attempts if attempts else 0.0
                out[f"{name}.{metric}"] = value
        out[OVERHEAD_METRIC] = overhead_ratio
        return out

    def write(self, path: Path):
        """All spans as tab-separated lines, one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id\tparent\trequest\tname\tstart_ns\tend_ns\tsize\n")
            for i, (name, parent, req, start, end, size) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{req}\t{name}\t{start}\t{end}\t{size}\n")
