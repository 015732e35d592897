"""Spans around the calls into each nclp module, recorded from outside.

``Tracer.install`` replaces every public function of the nclp modules by a
timing wrapper, in every module namespace that holds it (so names that one
module imported from another with ``from ... import`` are wrapped too), and
wraps ``SuperOperator.__call__`` and ``numpy.linalg.svd``.  ``uninstall``
puts the originals back, so untraced runs execute the program untouched.
Spans stay in memory until ``summary`` and ``dump``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("matcore", "normest", "embed", "cpmap", "qubitfamily", "tensor", "cli")
# A start is useful when it ends within this relative distance of the winner.
USEFUL_RTOL = 1e-9


class Tracer:
    def __init__(self):
        # One record per span: [name, parent index or -1, t0, t1, svd calls inside].
        self.spans: list[list] = []
        # dual_ascent span index -> (p, iterations, converged, value)
        self.ascents: dict[int, tuple] = {}
        self.svd_calls = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"nclp.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("nclp.") or owner not in LAYERS:
                    continue
                if obj not in wrapped:
                    hook = self._ascent_hook if obj.__name__ == "dual_ascent" else None
                    wrapped[obj] = self._wrap(f"{owner}.{obj.__name__}", obj, hook)
                self._patch(module, attr, wrapped[obj])
        superop = sys.modules["nclp.cpmap"].SuperOperator
        self._patch(superop, "__call__", self._wrap("cpmap.superop_apply", superop.__call__))
        self._patch(np.linalg, "svd", self._count_svd(np.linalg.svd))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.ascents.clear()
        self.svd_calls = 0

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_svd(self, svd):
        @functools.wraps(svd)
        def counted(*args, **kwargs):
            if self._stack:
                self.svd_calls += 1
            return svd(*args, **kwargs)

        return counted

    def _wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            svd0 = self.svd_calls
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[index] = [name, parent, t0, t1, self.svd_calls - svd0]
            if hook is not None:
                hook(index, args, kwargs, result)
            return result

        return wrapper

    def _ascent_hook(self, index, args, kwargs, result) -> None:
        p = kwargs["p"] if "p" in kwargs else args[1]
        self.ascents[index] = (p, result.iterations, result.converged, result.value)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive ms and self ms; plus estimator counts.

        Inclusive time counts only spans with no ancestor of the same name.
        Self time is a span's duration minus the durations of its children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls = defaultdict(int)
        incl_ms = defaultdict(float)
        self_ms = defaultdict(float)
        for index, (name, parent, t0, t1, _) in enumerate(spans):
            calls[name] += 1
            self_ms[name] += (t1 - t0 - child_time[index]) * 1e3
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][1]
            if ancestor < 0:
                incl_ms[name] += (t1 - t0) * 1e3
        return {
            "calls": dict(calls),
            "ms": dict(incl_ms),
            "self_ms": dict(self_ms),
            "svd_calls": self.svd_calls,
            "estimator": self._estimator_counts(),
        }

    def _estimator_counts(self) -> dict:
        starts = len(self.ascents)
        if not starts:
            return {"starts": 0, "iters_per_start": 0.0, "iters_per_start_max": 0,
                    "svd_per_iter": 0.0, "converged_frac": 0.0, "useful_start_frac": 0.0}
        iters = [it for _, it, _, _ in self.ascents.values()]
        # p > 1 only: each start spends one SVD on its starting value, the
        # rest on iterations.
        svd_p, iters_p = 0, 0
        by_call = defaultdict(list)
        for index, (p, it, _, value) in self.ascents.items():
            if p > 1.0:
                svd_p += self.spans[index][4] - 1
                iters_p += it
            by_call[self.spans[index][1]].append(value)
        useful = sum(
            sum(v >= max(values) * (1.0 - USEFUL_RTOL) for v in values)
            for values in by_call.values()
        )
        return {
            "starts": starts,
            "iters_per_start": sum(iters) / starts,
            "iters_per_start_max": max(iters),
            "svd_per_iter": svd_p / iters_p if iters_p else 0.0,
            "converged_frac": sum(c for _, _, c, _ in self.ascents.values()) / starts,
            "useful_start_frac": useful / starts,
        }

    def dump(self, path) -> None:
        """Write the spans as gzip JSON lines: name, parent, start ms, duration ms, SVDs."""
        base = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, parent, t0, t1, svd in self.spans:
                fh.write(json.dumps([name, parent, round((t0 - base) * 1e3, 6),
                                     round((t1 - t0) * 1e3, 6), svd]) + "\n")
