"""In-memory spans, self-time arithmetic and percentile helpers.

The traced run records one :class:`Span` per call boundary (name, start,
end, parent) from the benchmark's own files: it times the calls it makes
into each layer and wraps public methods on the instances it built, so
the program under test is not edited.  Spans stay in memory and are
written out once, when the run ends (:func:`write_spans`).

A span's *self time* is its duration minus the part of that interval
its child spans cover (:func:`self_times`); a root span's self time is
the part of a frame's latency no named layer accounts for.
"""

from __future__ import annotations

import gzip
import json
import math
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.perf_counter


@dataclass
class Span:
    """One timed interval at a layer boundary.

    ``frame`` and ``batch`` are the identifiers shared by every span of
    one frame / one dispatched batch; ``parent`` is the index of the span
    that caused this one (``None`` for a root).
    """

    name: str
    start: float
    end: float
    parent: Optional[int] = None
    frame: Optional[int] = None
    batch: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An append-only span store (list appends are atomic under the GIL)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None,
            frame: Optional[int] = None, batch: Optional[int] = None) -> int:
        self.spans.append(Span(name, start, end, parent, frame, batch))
        return len(self.spans) - 1

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]


def wrap_method(obj, attr: str, hook: Callable) -> Callable[[], None]:
    """Shadow ``obj.attr`` with a timing wrapper on the instance.

    ``hook(start, args, kwargs)`` runs as each call starts (so it can
    publish what the call carries before other threads see it) and
    returns ``finish(end, result)``, run after the call returns.
    Returns a function that removes the wrapper again.
    """
    original = getattr(obj, attr)

    def wrapper(*args, **kwargs):
        finish = hook(clock(), args, kwargs)
        result = original(*args, **kwargs)
        finish(clock(), result)
        return result

    setattr(obj, attr, wrapper)
    return lambda: delattr(obj, attr)


def timed_into(durations: List[float]) -> Callable:
    """A :func:`wrap_method` hook that appends each call's duration."""

    def hook(start, args, kwargs):
        return lambda end, result: durations.append(end - start)

    return hook


def covered(interval: Tuple[float, float], pieces: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``pieces``."""
    lo, hi = interval
    total, reach = 0.0, lo
    for a, b in sorted(pieces):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered((span.start, span.end), children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def closure(spans: Sequence[Span], root: str) -> float:
    """Median share of each ``root`` span that its children cover."""
    shares = [
        1.0 - own / span.duration
        for span, own in zip(spans, self_times(spans))
        if span.name == root and span.duration > 0
    ]
    return median(shares)


def span_table(spans: Sequence[Span]) -> Dict[str, dict]:
    """Per span name: count, total and self milliseconds."""
    table: Dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += span.duration * 1e3
        row["self_ms"] += own * 1e3
    return table


def write_spans(path: Path, spans: Sequence[Span]) -> None:
    """Write the spans and their per-name table as gzipped JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump({"table": span_table(spans), "spans": [asdict(s) for s in spans]}, fh)


#: Set-up is timed at least ``SETUP_MIN`` times and, while the repeats
#: have taken less than ``SETUP_BUDGET_S`` of wall time, up to
#: ``SETUP_MAX`` times; the median is reported.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 2.0


def repeat_setup(build: Callable[[], float], teardown: Callable[[], None]) -> List[float]:
    """Time ``build`` repeatedly, tearing down all but the last build."""
    times: List[float] = []
    start = clock()
    while len(times) < SETUP_MIN or (
        len(times) < SETUP_MAX and clock() - start < SETUP_BUDGET_S
    ):
        if times:
            teardown()
        times.append(build())
    return times


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Median (0.0 for no values)."""
    return statistics.median(values) if values else 0.0
