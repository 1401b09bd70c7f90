"""Opt-in timers around module attributes of the fabcp package.

A traced run replaces selected module attributes (public functions, and
the ``minimize``, ``ndtri`` and ``Generator`` names the modules import)
with wrappers that time each call. Nothing inside the package changes:
a module that looks the name up at call time reaches the wrapper, and
:meth:`Tracer.restore` puts the originals back. The untraced run never
installs a wrapper, so tracing costs nothing there.

Spans nest through a stack. A span's inclusive time is its wall time; its
self time is the inclusive time minus the time covered by the traced
spans it caused. Totals are aggregated as calls finish instead of kept as
a span list, so memory stays flat on long request streams.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable


class Tracer:
    """Aggregated span timings, call counts and named tallies."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        self._installed: list[tuple[Any, str, Any]] = []
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.child_calls: Counter[tuple[str, str]] = Counter()
        self.tally: Counter[str] = Counter()

    def counts(self) -> dict:
        """A copy of the counters, for figures taken over one round."""
        return {
            "calls": Counter(self.calls),
            "child_calls": Counter(self.child_calls),
            "tally": Counter(self.tally),
        }

    def span(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[tuple, Any, float], None] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a timed span; ``observe(args, result, seconds)`` runs on success."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.inclusive[name] += dt
                self.self_time[name] += dt - frame[1]
                self.calls[name] += 1
                if parent is not None:
                    parent[1] += dt
                    self.child_calls[parent[0], name] += 1
            if observe is not None:
                observe(args, result, dt)
            return result

        return traced

    def replace(self, module: Any, attr: str, value: Any) -> None:
        """Set ``module.attr`` until :meth:`restore`."""
        self._installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def wrap(
        self,
        module: Any,
        attr: str,
        name: str,
        observe: Callable[[tuple, Any, float], None] | None = None,
    ) -> None:
        """Time every call made through ``module.attr`` as span ``name``."""
        self.replace(module, attr, self.span(name, getattr(module, attr), observe))

    def restore(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)
