"""Spans around the benchmark's calls into each sumfree layer.

The program is not edited.  A Tracer replaces the public functions of the
layer modules by wrappers that record one span per call: name, layer,
start, end and the enclosing span.  Spans stay in memory and are written
once, when the run ends.

Where a wrapper is bound decides which nested calls become spans:

- functions of the coarse layers (enumeration, partitions, sampling) are
  rebound in every sumfree module, so a count made inside the sampler or
  the restricted counters shows as a child span of the caller;
- functions of the kernel layers (core, sumsets, bounds) are rebound only
  in their own module and in the package namespace.  The program calls
  them once per element inside its loops, and a span per element would
  swamp the trace; their time there is the caller's self time.

Generator functions are not wrapped (a span would end before the work
does); the benchmark opens spans around consuming them instead.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

COARSE_LAYERS = ("enumeration", "partitions", "sampling")
KERNEL_LAYERS = ("core", "sumsets", "bounds")

#: exact work counts read from a call's result, at the span boundary
WORK_OF = {
    "enumeration.count_sum_free": lambda r: {"nodes": r.nodes, "sets": r.total},
    "enumeration.count_oracle": lambda r: {"subsets": r.nodes},
    "partitions.sumset_size_profile": lambda r: {"candidates": sum(r.values())},
}


class Tracer:
    """Collects spans as (name, layer, start, end, parent index, work)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, layer: str):
        idx = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, layer, t0, None)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx, name, layer, t0, work):
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, layer, t0, t1, parent, work)

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        work_of = WORK_OF.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open()
            t0 = time.perf_counter()
            work = None
            try:
                result = fn(*args, **kwargs)
                if work_of is not None:
                    work = work_of(result)
                return result
            finally:
                self._close(idx, name, layer, t0, work)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module."""
        package = sys.modules["sumfree"]
        modules = [m for key, m in sys.modules.items() if key.startswith("sumfree") and m is not None]
        for layer in COARSE_LAYERS + KERNEL_LAYERS:
            home = sys.modules[f"sumfree.{layer}"]
            for attr, fn in list(vars(home).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != home.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                wrapper = self._wrap(layer, fn)
                targets = modules if layer in COARSE_LAYERS else (home, package)
                for module in targets:
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            self._patched.append((module, name, fn))
                            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line; times are seconds from the first span."""
        epoch = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, t0, t1, parent, work in self.spans:
                row = {
                    "name": name,
                    "layer": layer,
                    "start": t0 - epoch,
                    "end": t1 - epoch,
                    "parent": parent,
                    "run": self.run_id,
                }
                if work:
                    row["work"] = work
                fh.write(json.dumps(row) + "\n")


def layer_times(spans) -> tuple[Counter, Counter]:
    """Busy and self seconds per layer.

    Busy time sums the spans of a layer that have no ancestor in the same
    layer, so nested calls are not counted twice.  Self time is a span's
    duration minus the part its child spans cover.
    """
    covered = [0.0] * len(spans)
    for name, layer, t0, t1, parent, work in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    busy: Counter = Counter()
    self_time: Counter = Counter()
    for i, (name, layer, t0, t1, parent, work) in enumerate(spans):
        self_time[layer] += (t1 - t0) - covered[i]
        p = parent
        while p >= 0 and spans[p][1] != layer:
            p = spans[p][4]
        if p < 0:
            busy[layer] += t1 - t0
    return busy, self_time


def totals_by_name(spans) -> dict[str, dict]:
    """Per span name: call count, summed seconds and summed work counts."""
    out: dict[str, dict] = {}
    for name, layer, t0, t1, parent, work in spans:
        entry = out.setdefault(name, {"calls": 0, "seconds": 0.0, "work": Counter()})
        entry["calls"] += 1
        entry["seconds"] += t1 - t0
        if work:
            entry["work"].update(work)
    return out
