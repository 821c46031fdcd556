"""Outside-in tracer for smartmining, installed from the benchmark's own code.

Each traced boundary is a public function of one package module (its layer).
The tracer wraps it once and binds the wrapper at every module attribute its
callers resolve at call time: a ``from .engine import run`` in ``cli`` is
looked up as ``cli.run``, a call inside ``engine`` as ``engine.step_epoch``.
Every call records its duration and the part of it spent in wrapped children,
so a layer's self time is its time minus its wrapped children, and the self
times of one traced ``cli.main`` call sum to that call's duration.  Ordinary
boundaries also keep one span per call; hot inner boundaries keep only call
counts and cumulative times.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

PACKAGE = "smartmining"
LAYERS = ("cli", "model", "engine", "analytic", "optimizer", "security")
ROOT = "cli.main"


@dataclass(frozen=True)
class Boundary:
    name: str                     # "<layer>.<function>"; the layer is the owning module
    sites: tuple[str, ...]        # modules whose attribute of that name callers resolve
    hot: bool = False             # called per epoch or per cell: no span per call
    units: Callable | None = None   # (result) -> work units of one call


BOUNDARIES = (
    Boundary("model.validate_scenario", ("cli", "engine")),
    Boundary("model.calibrate_reward", ("cli",)),
    Boundary("engine.run", ("cli",), units=lambda r: len(r.records)),
    Boundary("engine.steady_cycle", ("engine", "security"), units=len),
    Boundary("engine.step_epoch", ("engine",), hot=True),
    Boundary("engine.trace_utilities", ("engine", "security")),
    Boundary("analytic.sweep", ("cli",)),
    # analytic.sweep imports optimal_idle from the optimizer module when called
    Boundary("optimizer.optimal_idle", ("optimizer", "cli"), hot=True),
    Boundary("analytic.smarter_utility", ("optimizer",), hot=True, units=np.size),
    Boundary("security.security_report", ("cli",)),
)


@dataclass
class Stats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None            # index of the enclosing span in ``Tracer.spans``


@dataclass
class Tracer:
    """Per-boundary statistics and spans of one traced call tree."""

    stats: dict[str, Stats] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)   # sites that no longer bind the function
    _stack: list = field(default_factory=list)          # open frames: [span index, child seconds]

    def wrap(self, name: str, fn, hot: bool = False, units=None):
        stats = self.stats.setdefault(name, Stats())
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            if hot:
                frame = [stack[-1][0] if stack else None, 0.0]
            else:
                frame = [len(spans), 0.0]
                spans.append(Span(name, 0.0, 0.0, stack[-1][0] if stack else None))
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not hot:
                    spans[frame[0]].start, spans[frame[0]].end = start, end
            if units is not None:
                stats.units += int(units(result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Bind wrappers at every boundary site; restore the originals on exit."""
        patched = []
        try:
            for b in BOUNDARIES:
                layer, func = b.name.split(".")
                fn = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), func, None)
                if fn is None:
                    self.missing.append(b.name)
                    continue
                wrapper = self.wrap(b.name, fn, b.hot, b.units)
                for site in b.sites:
                    module = importlib.import_module(f"{PACKAGE}.{site}")
                    if getattr(module, func, None) is fn:
                        patched.append((module, func, fn))
                        setattr(module, func, wrapper)
                    else:
                        self.missing.append(f"{site}.{func}")
            yield self
        finally:
            for module, func, fn in reversed(patched):
                setattr(module, func, fn)

    def get(self, name: str) -> Stats:
        return self.stats.get(name, Stats())

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.stats.items():
            out[name.split(".")[0]] += s.self_s
        return out
