"""Span tracing from outside the program.

A :class:`Tracer` keeps spans in memory: each records its name, start,
end, parent and an optional work count.  :func:`patched` replaces
public functions and methods at the import sites a workload passes
through with timing wrappers, and puts every original back when it
exits, so untraced passes never see a wrapper.  Nothing in the program
source is changed.

A layer's self time is its span duration minus the time its direct
child spans cover.  Every traced pass runs under one root span, so the
self times of all spans of a pass sum to its wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

#: Name of the root span every traced pass runs under; its self time
#: is the wall time no layer claims.
ROOT = "driver"


class Tracer:
    """An in-memory span log for one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: list[float] = []
        self._open: list[int] = []
        self._thread = threading.get_ident()

    def open(self, name: str) -> int:
        if threading.get_ident() != self._thread:
            raise RuntimeError(
                f"span {name!r} opened off the tracing thread; the "
                "tracer attributes time along one call stack only")
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(math.nan)
        self.work.append(0.0)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        top = self._open.pop()
        if top != index:
            raise RuntimeError(
                f"span {self.names[index]!r} closed while "
                f"{self.names[top]!r} was still open")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)


@contextmanager
def no_span(name: str) -> Iterator[None]:
    """The untraced stand-in for :meth:`Tracer.span`."""
    yield


@dataclass(frozen=True)
class Site:
    """One attribute to wrap: ``owner`` is a module path, or
    ``module:Class`` for a method; ``work`` maps ``(args, result)`` to
    the work count the span records."""

    owner: str
    attr: str
    span: str
    work: "Callable[[tuple, Any], float] | None" = None


def resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


def _wrap(tracer: Tracer, site: Site, fn: Callable) -> Callable:
    name, work = site.span, site.work

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if work is not None:
            tracer.work[index] = float(work(args, result))
        return result

    return traced


@contextmanager
def patched(tracer: Tracer, sites: Sequence[Site]) -> Iterator[None]:
    """Wrap every site for the duration of the block, then restore.

    A method inherited rather than defined on the named class is
    deleted again on exit, so the class falls back to its base.
    """
    saved: list[tuple[Any, str, bool, Any]] = []
    try:
        for site in sites:
            owner = resolve(site.owner)
            own = site.attr in vars(owner)
            original = (vars(owner)[site.attr] if own
                        else getattr(owner, site.attr))
            saved.append((owner, site.attr, own, original))
            setattr(owner, site.attr,
                    _wrap(tracer, site, getattr(owner, site.attr)))
        yield
    finally:
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


@dataclass
class LayerStats:
    calls: int = 0
    #: Inclusive time, counting only the outermost span of a name.
    total_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0


def summarize(tracer: Tracer) -> dict[str, LayerStats]:
    """Per span name: calls, inclusive time, self time and work."""
    n = len(tracer.names)
    child_s = [0.0] * n
    for i in range(n):
        if tracer.parents[i] >= 0:
            child_s[tracer.parents[i]] += tracer.ends[i] - tracer.starts[i]
    stats: dict[str, LayerStats] = {}
    for i in range(n):
        name = tracer.names[i]
        duration = tracer.ends[i] - tracer.starts[i]
        row = stats.setdefault(name, LayerStats())
        row.calls += 1
        row.self_s += duration - child_s[i]
        row.work += tracer.work[i]
        parent = tracer.parents[i]
        while parent >= 0 and tracer.names[parent] != name:
            parent = tracer.parents[parent]
        if parent < 0:
            row.total_s += duration
    return stats


def tick_ms(tracer: Tracer, tick_span: str, loop_span: str) -> list[float]:
    """Tick latencies of every ``loop_span`` run, in milliseconds.

    A simulator serves each tick with one ``tick_span`` call, so a
    tick runs from the start of its call to the start of the next one
    (or the end of the loop), bookkeeping included.
    """
    starts: dict[int, list[float]] = {}
    for i, name in enumerate(tracer.names):
        parent = tracer.parents[i]
        if name == tick_span and parent >= 0 \
                and tracer.names[parent] == loop_span:
            starts.setdefault(parent, []).append(tracer.starts[i])
    ticks: list[float] = []
    for loop, marks in starts.items():
        edges = marks + [tracer.ends[loop]]
        ticks.extend((b - a) * 1e3 for a, b in zip(edges, edges[1:]))
    return ticks
