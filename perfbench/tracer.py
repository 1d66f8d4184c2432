"""Span tracer that wraps the package's layers from outside.

``Tracer.install`` replaces every public function of the eight fermicert
modules, and ``numpy.linalg.eigh``/``eigvalsh``/``svd`` (the ``lapack``
layer), with a wrapper that records a span: name, start, end and the index
of the enclosing span.  A name bound by ``from .x import y`` is a separate
binding, so every binding of a wrapped function in every fermicert module
namespace is replaced.  ``Tracer.hook_imports``, called before the package
is imported, also records the execution of each module body as a
``<module>.import`` span, so a layer that a workload never calls shows its
import cost instead of an exact zero.  Spans stay in memory until
``write``.  Nothing under ``src/`` is changed.

A layer's self time is the time of its spans minus the time their direct
child spans cover; calls run in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("fock", "geometry", "dynamics", "lr_bounds", "cond_exp", "gap",
           "models", "cli")
LAPACK = ("eigh", "eigvalsh", "svd")
LAYERS = MODULES + ("lapack",)


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start, end, parent index or -1]
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def hook_imports(self) -> None:
        sys.meta_path.insert(0, _ImportTimer(self))

    def install(self) -> None:
        import numpy

        package = importlib.import_module("fermicert")
        modules = [importlib.import_module(f"fermicert.{m}") for m in MODULES]
        wrappers = {}    # id(original) -> (original, wrapper)
        for short, mod in zip(MODULES, modules):
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(value)] = (value, self.wrap(f"{short}.{attr}", value))
        for mod in [package, *modules]:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        for attr in LAPACK:
            setattr(numpy.linalg, attr, self.wrap(f"lapack.{attr}", getattr(numpy.linalg, attr)))

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one span adds to a call, from timing a wrapped no-op."""
        def noop():
            return None

        wrapped = Tracer().wrap("probe", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        return max((t2 - t1) - (t1 - t0), 0.0) / calls

    def summary(self) -> dict:
        """Self seconds per layer and call counts per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name.split(".", 1)[0]] += end - start - covered
        roots = [end - start for _, start, end, parent in self.spans if parent < 0]
        return {"self_s": {layer: self_s.get(layer, 0.0) for layer in LAYERS},
                "calls": dict(Counter(name for name, *_ in self.spans)),
                "traced_s": sum(roots),
                "overhead_s": len(self.spans) * self.span_cost()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


class _ImportTimer(importlib.abc.MetaPathFinder):
    """Wraps the loader of each traced fermicert module so that executing
    the module body is recorded as a span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        package, _, short = name.rpartition(".")
        if package != "fermicert" or short not in MODULES:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                spec.loader.exec_module = self.tracer.wrap(f"{short}.import",
                                                           spec.loader.exec_module)
                return spec
        return None
