"""In-memory spans around library functions, and their per-function and
per-module summary.

A span is ``[name_id, parent_index, start_ns, end_ns]``; ``parent_index`` is
the position of the enclosing span in ``Tracer.spans`` or -1. Calls are
assumed single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import functools
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.probes: dict[str, dict] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, probe=None):
        """``fn`` recording one span per call under ``name``.

        ``probe(args, result)`` runs once, after the first call returns and
        outside its span; its dict is kept in ``probes[name]``.
        """
        name_id = self.name_id(name)
        spans, stack, probes = self.spans, self._stack, self.probes
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if probe is not None and name not in probes:
                probes[name] = probe(args, result)
            return result

        return traced

    def count(self, name: str, fn):
        "``fn`` incrementing ``counters[name]`` per call, with no span."
        counters = self.counters
        counters[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(names, spans) -> dict:
    """Per-function and per-module totals of a span list, in seconds.

    A span's self time is its duration minus the durations of its direct
    children. A module is busy while any of its spans is open, so a span
    nested inside another span of the same module adds to the module's
    calls and self time but not again to its busy time.
    """
    n = len(spans)
    duration = [(s[3] - s[2]) * 1e-9 for s in spans]
    children = [0.0] * n
    for i, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]] += duration[i]
    modules = sorted({module_of(x) for x in names})
    bit = {m: 1 << k for k, m in enumerate(modules)}
    span_bit = [bit[module_of(names[s[0]])] for s in spans]
    # bitmask of the modules open above each span; parents precede children
    above = [0] * n
    functions: dict[str, dict] = {}
    per_module = {m: {"busy_s": 0.0, "self_s": 0.0, "calls": 0} for m in modules}
    per_call: dict[str, list] = {}
    for i, span in enumerate(spans):
        parent = span[1]
        if parent >= 0:
            above[i] = above[parent] | span_bit[parent]
        name = names[span[0]]
        self_s = duration[i] - children[i]
        entry = functions.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += duration[i]
        entry["self_s"] += self_s
        entry["calls"] += 1
        per_call.setdefault(name, []).append(duration[i])
        mod = per_module[module_of(name)]
        mod["self_s"] += self_s
        mod["calls"] += 1
        if not above[i] & span_bit[i]:
            mod["busy_s"] += duration[i]
    for name, entry in functions.items():
        p50, p85 = np.percentile(per_call[name], [50.0, 85.0])
        entry.update(p50_s=float(p50), p85_s=float(p85),
                     us_per_call=entry["s"] / entry["calls"] * 1e6)
    return {"functions": functions, "modules": per_module}


def wrapper_cost(wrap, calls: int = 200_000) -> float:
    "Seconds the wrapper ``wrap(fn)`` adds to each call, measured on a no-op."

    def noop():
        pass

    wrapped = wrap(noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        wrapped()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def array_bytes(obj) -> int:
    """Bytes held in the numpy arrays of ``obj``: an array, a tuple or list
    of arrays, or an object's array attributes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        items = obj
    else:
        items = getattr(obj, "__dict__", {}).values()
    return sum(v.nbytes for v in items if isinstance(v, np.ndarray))
