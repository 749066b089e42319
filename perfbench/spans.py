"""In-memory spans around the program's layers, for the traced run.

The program is not instrumented. Instead the public functions are
replaced, for the duration of one traced call, under the module
attribute their callers look up (``cli.parse_series``,
``harness.forecast_series``, ...). Spans stay in memory; the caller
aggregates them after the run.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    items: int = 0


@dataclass
class LayerTotals:
    total_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    items: int = 0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record.items = count(result)
            return result
        return traced

    def layers(self) -> dict[str, LayerTotals]:
        """Per-name totals; self time is a span minus its children's spans.

        Calls run on one thread and nest, so children never overlap and
        their durations add up to the part of the parent they cover.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        totals: dict[str, LayerTotals] = {}
        for s, c in zip(self.spans, covered):
            t = totals.setdefault(s.name, LayerTotals())
            t.total_s += s.end - s.start
            t.self_s += s.end - s.start - c
            t.calls += 1
            t.items += s.items
        return totals


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Swap in traced wrappers for ``(module, attribute, name, count)`` targets.

    A module that no longer has the attribute raises ``AttributeError``:
    the benchmark must then be told where its callers look the layer up.
    """
    saved = []
    try:
        for module, attr, name, count in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
