"""Span tracer that times a package's layers from outside.

It replaces a function at the module-level name its callers look up
(``membrane.scenarios.step``, ``membrane.cli.write_element_csv``, ...)
with a wrapper that records one span per call: name, start, end and the
span that was open when it began.  Spans stay in memory; the caller
reads them after the traced call returns.  The tracer assumes one
thread, which the benchmark guarantees with ``MEMBRANE_THREADS=1``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches = []

    def wrap(self, module, attr: str, name: str, on_return=None) -> None:
        """Record a span for every call made through `module.attr`.

        `on_return(args, result)` runs after the span has closed, so its
        own cost is not charged to the layer.
        """
        original = getattr(module, attr)
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        """Put every wrapped name back."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own
