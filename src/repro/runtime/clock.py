"""Injectable monotonic time for the serving runtime.

The reliability layer is built out of timers: the ingestor's coalescing
deadline and per-frame latency budgets, each shard attempt's execution
budget, the circuit breaker's failure window and cooldown.  Testing
timers with real sleeps makes the chaos suite slow and flaky, so every
component that *reads* time takes a :class:`Clock` and defaults to the
singleton :data:`MONOTONIC` — production code pays one attribute lookup,
tests swap in a :class:`FakeClock` and advance it by hand.

One source, one epoch: everything uses ``time.perf_counter`` (monotonic,
sub-microsecond), never wall-clock ``time.time`` — deadlines must not
jump when NTP steps the host clock.  Values from two different ``Clock``
instances are not comparable; components must thread one instance
through (the service hands its clock to the breaker, the ingestor to its
deadline bookkeeping).
"""

from __future__ import annotations

import threading
import time


class Clock:
    """Monotonic time source interface (seconds as ``float``)."""

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError


class MonotonicClock(Clock):
    """The real thing: ``time.perf_counter`` + ``time.sleep``."""

    def now(self) -> float:
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class FakeClock(Clock):
    """A hand-cranked clock for deterministic timer tests.

    ``now()`` returns the current fake instant; :meth:`advance` moves it
    forward (never backward — the contract is monotonic, same as the
    real clock).  ``sleep`` advances instead of blocking, so code under
    test that sleeps completes instantly and deterministically.
    Thread-safe: the chaos tests advance it while runtime threads read.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds``; returns the new instant."""
        if seconds < 0:
            raise ValueError(f"cannot advance time backward ({seconds})")
        with self._lock:
            self._now += float(seconds)
            return self._now

    def sleep(self, seconds: float) -> None:
        self.advance(max(0.0, seconds))


#: Shared default instance — stateless, so one is enough for everyone.
MONOTONIC = MonotonicClock()
