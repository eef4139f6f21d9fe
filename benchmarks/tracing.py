"""Layer spans recorded from outside the ``vnchain`` package.

``install`` wraps the public functions and methods of each package module,
and ``numpy.kron`` and ``numpy.linalg.eigvalsh``, in place.  Every wrapped
call is a span; its self time (duration minus the time of wrapped calls it
made) is credited to the layer of the module that defines it, so the layer
self times of one operation add up to the time spent inside ``cli.main``.
Calls to kron and eigvalsh are their own buckets and are not part of any
layer's self time.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYER_OF_MODULE = {
    "cli": "cli",
    "scenarios": "runner",
    "suites": "runner",
    "chains": "chains",
    "branches": "chains",
    "premeasurement": "premeasurement",
    "observables": "observables",
    "hilbert": "hilbert",
}
LAYERS = ("cli", "runner", "chains", "premeasurement", "observables", "hilbert")


class Tracer:
    """Per-operation span accounting; ``reset`` starts a new operation."""

    def __init__(self):
        self._stack: list[list] = []
        self._next_id = 1
        self.reset(record=False)

    def reset(self, record: bool) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.kron_max_bytes = 0
        self.branches_attempted = 0
        self.branches_kept = 0
        self.spans: list[tuple] | None = [] if record else None

    def exclude(self, seconds: float) -> None:
        """Keep time spent outside the program, such as a reference slice
        run from a signal handler, out of the self time of the span it
        interrupted."""
        if self._stack:
            self._stack[-1][1] += seconds

    def wrap(self, fn, name: str, bucket: str, after=None):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.self_s[bucket] += duration - frame[1]
                self.inclusive_s[name] += duration
                self.calls[name] += 1
                if self.spans is not None:
                    self.spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _after_kron(tracer: Tracer, args, result) -> None:
    tracer.kron_max_bytes = max(tracer.kron_max_bytes, result.nbytes)


def _after_branch_decomposition(tracer: Tracer, args, result) -> None:
    tracer.branches_attempted += args[1].branch_count
    tracer.branches_kept += len(result.branches)


def _after_improper_mixture(tracer: Tracer, args, result) -> None:
    tracer.branches_attempted += len(args[1].projectors)
    tracer.branches_kept += len(result.branches)


AFTER = {
    "premeasurement.branch_decomposition": _after_branch_decomposition,
    "chains.improper_mixture": _after_improper_mixture,
}


def install(tracer: Tracer) -> int:
    """Wrap the package's public callables in place; returns how many."""
    import numpy
    import vnchain

    modules = {short: importlib.import_module(f"vnchain.{short}") for short in LAYER_OF_MODULE}
    wrapped: dict[int, object] = {}
    for short, module in modules.items():
        bucket = LAYER_OF_MODULE[short]
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not attr.startswith("_"):
                name = f"{short}.{attr}"
                wrapped[id(obj)] = tracer.wrap(obj, name, bucket, AFTER.get(name))
            elif inspect.isclass(obj):
                for method, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (
                        not method.startswith("_") or method == "__post_init__"
                    ):
                        name = f"{short}.{attr}.{method}"
                        setattr(obj, method, tracer.wrap(fn, name, bucket))
    # Modules bind each other's functions by name at import time, so every
    # namespace that holds an original gets the wrapper.
    for module in [vnchain, *modules.values()]:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])
    numpy.kron = tracer.wrap(numpy.kron, "numpy.kron", "kron", _after_kron)
    numpy.linalg.eigvalsh = tracer.wrap(numpy.linalg.eigvalsh, "numpy.linalg.eigvalsh", "eigvalsh")
    return len(wrapped)
