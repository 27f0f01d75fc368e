"""Per-layer tracing by wrapping library functions from outside.

A binding names a module attribute that some caller looks up at call
time, such as ``pufferot.mechanisms.optimal_plan`` (looked up by
``calibrate_pufferfish``) or ``pufferot.cli.load_table`` (looked up by the
``calibrate`` command). While installed, the wrapper records per op the
layer's calls, total time and self time (total minus the time of wrapped
layers it called), plus any counts the binding derives from the call.
Every binding must fire at least once, or the run fails: a caller that
stops using a name must not make its layer read as zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Binding:
    module: str
    attr: str
    layer: str
    #: Maps (args, kwargs, result) to {counter name: increment}.
    counts: Callable | None = None


class LayerStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self, bindings: list[Binding]) -> None:
        self.bindings = bindings
        self.fired = {(b.module, b.attr): 0 for b in bindings}
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.counts: dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        """Start a fresh op: zero the per-op layer totals and counts."""
        self.layers = defaultdict(LayerStats)
        self.counts = defaultdict(float)

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as a span of ``layer``, nested under any open span."""
        child_time = [0.0]
        self._stack.append(child_time)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            stats = self.layers[layer]
            stats.calls += 1
            stats.total += elapsed
            stats.self_time += elapsed - child_time[0]

    def _wrap(self, binding: Binding, fn: Callable) -> Callable:
        key = (binding.module, binding.attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.fired[key] += 1
            result = self.span(binding.layer, fn, *args, **kwargs)
            if binding.counts is not None:
                for name, value in binding.counts(args, kwargs, result).items():
                    self.counts[name] += value
            return result

        return wrapper

    def install(self) -> None:
        for binding in self.bindings:
            module = importlib.import_module(binding.module)
            original = getattr(module, binding.attr)
            self._originals.append((module, binding.attr, original))
            setattr(module, binding.attr, self._wrap(binding, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def check_all_fired(self) -> None:
        silent = [f"{m}.{a}" for (m, a), n in self.fired.items() if n == 0]
        if silent:
            raise RuntimeError(
                "traced names never called, so their layers would read as zero: "
                + ", ".join(silent)
            )

    def snapshot(self) -> dict[str, float]:
        """The current op's figures: <layer>.calls, .ms, .self_ms and every count."""
        out = dict(self.counts)
        for layer, stats in self.layers.items():
            out[f"{layer}.calls"] = stats.calls
            out[f"{layer}.ms"] = stats.total * 1e3
            out[f"{layer}.self_ms"] = stats.self_time * 1e3
        return out
