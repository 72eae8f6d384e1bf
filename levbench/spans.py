"""Outside-in span recorder for the traced benchmark run.

The recorder times each ``levamp`` layer without touching the package's
source: it replaces a boundary function with a timing wrapper, both in
the module that defines it and under every other name a ``levamp``
module binds it to (``harness`` imports ``transition`` by name, ``cli``
imports ``run_ensemble`` by name, and so on).  ``uninstall`` puts every
original back, so untraced operations run the package as shipped.

Spans carry a name, start, end, thread and parent.  A span opened on a
worker thread with nothing open on that thread is parented to the
innermost open span of the driving thread: the benchmark drives the
package from one thread, and a thread pool inside ``run_ensemble`` only
runs while that call is open.  A layer's self time is its spans' time
minus the union of their children's intervals; a union, not a sum,
because children on two worker threads overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    work: int = 0


@dataclass(frozen=True)
class Boundary:
    """One public function at a layer boundary.

    ``work`` maps the call's arguments and result to a count (trial
    steps, record samples, bytes written); ``label`` names the span
    from the arguments where one function serves several layers.
    """

    module: str
    attr: str
    layer: str
    work: Callable | None = None
    label: Callable | None = None


class Tracer:
    """Collects spans in memory; safe to call from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._driver = threading.get_ident()

    def begin(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._open.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                driver = self._open.get(self._driver)
                parent = driver[-1] if driver and tid != self._driver else None
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, tid, parent))
            stack.append(index)
        return index

    def end(self, index: int) -> None:
        now = time.perf_counter()
        with self._lock:
            span = self.spans[index]
            span.end = now
            self._open[span.thread].remove(index)


def _wrap(tracer: Tracer, boundary: Boundary, original: Callable) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        name = boundary.label(args, kwargs) if boundary.label else boundary.layer
        index = tracer.begin(name)
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            tracer.end(index)
            if boundary.work is not None:
                try:
                    tracer.spans[index].work = int(boundary.work(args, kwargs, result))
                except Exception:  # a changed signature loses the count, not the call
                    pass

    return traced


@dataclass
class Installed:
    """Replacements made by :func:`install`, and the functions not found."""

    patches: list[tuple[object, str, object]] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)


def install(tracer: Tracer, boundaries) -> Installed:
    """Wrap every boundary function that exists; list the others as missing."""
    done = Installed()
    for boundary in boundaries:
        try:
            module = importlib.import_module(boundary.module)
        except ModuleNotFoundError:
            module = None
        original = getattr(module, boundary.attr, None)
        if not callable(original):
            done.missing.append(f"{boundary.module}.{boundary.attr}")
            continue
        wrapper = _wrap(tracer, boundary, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "levamp" or name.startswith("levamp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    done.patches.append((mod, attr, original))
    return done


def uninstall(done: Installed) -> None:
    for mod, attr, original in reversed(done.patches):
        setattr(mod, attr, original)
    done.patches.clear()


# ---------------------------------------------------------------------------
# interval arithmetic


def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def _length(intervals) -> float:
    return sum(b - a for a, b in intervals)


def busy_s(spans: list[Span], names) -> float:
    """Wall time during which a span of any of ``names`` was open."""
    return _length(_union((s.start, s.end) for s in spans if s.name in names))


def _subtract(interval, holes) -> list[tuple[float, float]]:
    """Parts of ``interval`` not covered by the merged, sorted ``holes``."""
    start, end = interval
    out = []
    cursor = start
    for a, b in holes:
        a, b = max(a, start), min(b, end)
        if b <= a:
            continue
        if a > cursor:
            out.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < end:
        out.append((cursor, end))
    return out


def self_intervals(spans: list[Span]) -> list[list[tuple[float, float]]]:
    """Per span, its interval minus the union of its children's."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        _subtract((span.start, span.end), _union(children.get(i, [])))
        for i, span in enumerate(spans)
    ]


@dataclass(frozen=True)
class LayerTotals:
    """Per-layer wall time busy (inclusive and self), calls and work."""

    busy_s: float
    self_s: float
    calls: int
    work: int


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Reduce spans to per-layer totals.

    Times are the length of the union of the layer's intervals, so a
    layer busy on two threads at once counts that stretch of wall time
    once and no layer's time can exceed the traced wall time.
    """
    selfs = self_intervals(spans)
    grouped: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        grouped.setdefault(span.name, []).append(i)
    totals = {}
    for name, idx in grouped.items():
        totals[name] = LayerTotals(
            busy_s=_length(_union((spans[i].start, spans[i].end) for i in idx)),
            self_s=_length(_union(iv for i in idx for iv in selfs[i])),
            calls=len(idx),
            work=sum(spans[i].work for i in idx),
        )
    return totals
