"""Span and counter recorder that wraps library functions from outside.

The recorder replaces a function by a timing wrapper everywhere the library
looks it up at call time: in every module namespace that holds it, and in
module-level dispatch tables (such as `hvw.properties._CHECKERS`) that hold
it as a value. Each call becomes a span with a start, an end and the span that
was open when it began. `restore` puts every original back.

Everything runs on one thread, so the open spans form a plain stack.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    ident: int
    name: str
    parent: int | None
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {span.ident: span for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            parent = by_id[span.parent]
            children[span.parent].append((max(span.start, parent.start), min(span.end, parent.end)))
    return {span.ident: span.duration - covered(children[span.ident]) for span in spans}


# An observer sees one finished call and updates counters; it runs after the
# span has closed, so its own cost is tracing overhead, not the layer's time.
Observer = Callable[["Recorder", tuple, dict, object], None]


class Recorder:
    """Holds spans and counters for one traced interval."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._replaced: list[tuple[dict, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def maximum(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def wrap(self, name: str, func: Callable, observe: Observer | None = None) -> Callable:
        """A wrapper that records one span named `name` per call of `func`."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            ident = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(ident)
            start = self.clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append(Span(ident, name, parent, start, end))
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(
        self,
        modules: Iterable[ModuleType],
        targets: Iterable[tuple[str, Callable, Observer | None]],
    ) -> None:
        """Replace each target function by its wrapper in every given module.

        `targets` holds (span name, original function, observer). A module
        attribute or a value in a module-level dict that *is* the original
        is replaced; nothing else is touched.
        """
        if self._replaced:
            raise RuntimeError("recorder is already installed")
        wrappers = {id(func): self.wrap(name, func, observe) for name, func, observe in targets}
        originals = {id(func): func for _, func, _ in targets}
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in wrappers and value is originals[id(value)]:
                    self._replace(namespace, key, wrappers[id(value)])
                elif type(value) is dict:
                    for inner_key, inner in list(value.items()):
                        if id(inner) in wrappers and inner is originals[id(inner)]:
                            self._replace(value, inner_key, wrappers[id(inner)])

    def _replace(self, container: dict, key: str, wrapper: Callable) -> None:
        self._replaced.append((container, key, container[key]))
        container[key] = wrapper

    def restore(self) -> None:
        """Put back every function `install` replaced, newest first."""
        while self._replaced:
            container, key, original = self._replaced.pop()
            container[key] = original

    # -- reading -----------------------------------------------------------

    def summary(self) -> dict[str, SpanTotals]:
        """Per span name: calls, busy time (union of its spans) and self time."""
        own = self_times(self.spans)
        grouped: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            grouped[span.name].append(span)
        return {
            name: SpanTotals(
                calls=len(spans),
                busy_s=covered((s.start, s.end) for s in spans),
                self_s=sum(own[s.ident] for s in spans),
            )
            for name, spans in grouped.items()
        }


@dataclass(frozen=True)
class SpanTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
