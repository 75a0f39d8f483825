"""Span recording for the traced benchmark run.

The library is not instrumented. Instead, :func:`install` rebinds the public
functions of each layer module at every place they are imported (the defining
module, the modules that did ``from .x import f``, and the package namespace),
so each call into a layer opens a span. Spans are aggregated on the fly into
per-function call counts, total time and self time (total minus the time
covered by child spans), which keeps memory flat however many calls a run
makes.
"""

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# The package modules that do work, in pipeline order; ``errors`` does none.
LAYERS = (
    "fbm",
    "coefficients",
    "grid",
    "young",
    "cutoff",
    "solver",
    "malliavin",
    "experiments",
    "cli",
)

# Public functions outside the modules' ``__all__`` that still mark a layer
# boundary, and methods, named "Class.method".
_EXTRA_TARGETS = {
    "solver": ("green_weights",),
    "cli": ("main",),
    "grid": ("GridFunction.to_csv",),
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Aggregates spans by name; ``hooks`` map a span name to a callback
    ``hook(tracer, args, kwargs, result)`` that updates ``counters``."""

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.enabled = True
        self.reset()

    def reset(self):
        self.stats: dict[str, SpanStats] = {}
        self.counters: Counter = Counter()
        self.active: Counter = Counter()
        self._stack: list[list[float]] = []

    @contextmanager
    def paused(self):
        """Run harness-side work (correctness gates) without recording it."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def wrap(self, name: str, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]  # time covered by child spans
            self._stack.append(frame)
            self.active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self.active[name] -= 1
                stats = self.stats.setdefault(name, SpanStats())
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return span

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s.self_s for name, s in self.stats.items() if name.startswith(prefix))

    def total_self_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())


def _targets(module, layer: str):
    names = [n for n in getattr(module, "__all__", ()) if not isinstance(getattr(module, n, None), type)]
    return names + [n for n in _EXTRA_TARGETS.get(layer, ()) if n not in names]


def install(package: str, tracer: Tracer):
    """Rebind every layer's public functions to span recorders.

    Returns a callable that restores the original bindings. Targets that a
    given version of the package does not define are skipped.
    """
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    namespaces = [importlib.import_module(package), *modules.values()]
    undo = []
    wrapped = {}  # id(original function) -> (original, wrapper)
    for layer, module in modules.items():
        for target in _targets(module, layer):
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                continue
            wrapper = tracer.wrap(f"{layer}.{target}", original)
            if owner_name:
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, original))
            else:
                wrapped[id(original)] = (original, wrapper)
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(namespace, attr, entry[1])
                undo.append((namespace, attr, value))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
