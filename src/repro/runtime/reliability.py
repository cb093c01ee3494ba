"""Circuit breaker, brownout policy and reliability counters.

The sharded data plane is the fast path, not the only path: the
in-process :class:`~repro.runtime.batch.BatchToneMapper` computes
bit-identical outputs without crossing a process boundary — the
software-fallback analogue of the paper's ARM path when the FPGA
accelerator is unavailable.  This module decides *when* to take it.

A :class:`CircuitBreaker` watches shard-level failures (crashes the
respawn could not absorb, watchdog timeouts past the hedge budget).
After ``failure_threshold`` failures inside ``window_s`` it **opens**:
the service stops offering batches to the pool and *browns out* to the
in-process mapper — slower, but it always works and the outputs are
bit-identical, so callers see latency degradation instead of errors.
After ``cooldown_s`` the breaker **half-opens** and lets
``probe_batches`` batches through to the pool; if they all succeed it
**closes** (full service restored), if any fails it re-opens and the
cooldown restarts.

The breaker takes an injectable :class:`~repro.runtime.clock.Clock` so
its whole state machine is unit-testable with a fake clock — no sleeps,
no flakes (see ``tests/test_reliability.py``).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque

from repro.errors import ToneMapError
from repro.runtime.clock import MONOTONIC, Clock

#: Breaker states, as surfaced in :class:`ReliabilityStats`.
BREAKER_DISABLED = "disabled"
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


@dataclass(frozen=True)
class ReliabilityStats:
    """Reliability-layer counters surfaced on ``ServiceStats``.

    Attributes
    ----------
    deadline_shed:
        Frames shed by the ingestor because their ``deadline_ms``
        budget expired while queued (failed with
        :class:`~repro.errors.DeadlineExceededError`).
    hedged_replays:
        Batches replayed on a respawned worker set after the watchdog
        killed a hung attempt.
    watchdog_kills:
        Watchdog firings — each SIGKILLed the worker set of one
        over-budget batch.
    breaker_state:
        Current breaker state (``disabled`` when the service was built
        without one, else ``closed`` / ``open`` / ``half_open``).
    breaker_transitions:
        Total state transitions since construction (a breaker that
        flaps shows a high number here with few brownout batches).
    brownout_batches:
        Batches executed on the in-process mapper because the breaker
        was open (or a shard failure fell back mid-batch).
    hosts_lost:
        Shard hosts a :class:`~repro.runtime.hostpool.HostPool`
        declared dead (connection lost, partitioned away, or killed)
        — the host-level analogue of a worker crash; each one triggers
        a replay on another host and, for pool-owned hosts, a respawn.
        Always 0 on a single-host service.
    ladder_rung:
        Current rung of the SLO degradation ladder
        (:data:`~repro.runtime.overload.LADDER`): ``full`` /
        ``shed_best_effort`` / ``brownout``.
        ``full`` when the service runs without an
        :class:`~repro.runtime.overload.OverloadController`.
    ladder_transitions:
        Rung changes (both directions) since construction — a high
        number with little time off ``full`` means the hysteresis
        knobs are too twitchy for the workload.
    ladder_shed:
        Best-effort frames dropped by the ladder: queued frames failed
        on entering the ``shed_best_effort`` rung plus best-effort
        submissions rejected while the rung held.
    """

    deadline_shed: int = 0
    hedged_replays: int = 0
    watchdog_kills: int = 0
    breaker_state: str = BREAKER_DISABLED
    breaker_transitions: int = 0
    brownout_batches: int = 0
    hosts_lost: int = 0
    ladder_rung: str = "full"
    ladder_transitions: int = 0
    ladder_shed: int = 0


@dataclass(frozen=True)
class BreakerPolicy:
    """Tuning knobs for :class:`CircuitBreaker`.

    Parameters
    ----------
    failure_threshold:
        Shard failures inside ``window_s`` that open the breaker.
    window_s:
        Sliding window over which failures are counted.
    cooldown_s:
        How long the breaker stays open before half-opening.
    probe_batches:
        Consecutive successful probe batches required to close again
        from half-open.
    """

    failure_threshold: int = 5
    window_s: float = 30.0
    cooldown_s: float = 5.0
    probe_batches: int = 2

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ToneMapError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.window_s <= 0 or self.cooldown_s <= 0:
            raise ToneMapError(
                f"window_s and cooldown_s must be > 0, got "
                f"{self.window_s}/{self.cooldown_s}"
            )
        if self.probe_batches < 1:
            raise ToneMapError(
                f"probe_batches must be >= 1, got {self.probe_batches}"
            )


class CircuitBreaker:
    """Sliding-window circuit breaker with half-open probing.

    Thread-safe; time comes from the injected clock only.  The service
    calls :meth:`allow_shard` before offering a batch to the pool, then
    exactly one of :meth:`record_success` / :meth:`record_failure` for
    that batch.  State moves open→half_open lazily inside
    :meth:`allow_shard` (no timer thread — the breaker only needs to
    know the time when someone asks it for a routing decision).
    """

    def __init__(self, policy: BreakerPolicy | None = None,
                 clock: Clock = MONOTONIC):
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._failures: Deque[float] = deque()
        self._opened_at = 0.0
        self._probes_allowed = 0
        self._probes_succeeded = 0
        self._transitions = 0

    # ------------------------------------------------------------------
    # Routing decision
    # ------------------------------------------------------------------
    def allow_shard(self) -> bool:
        """Whether the next batch may be offered to the shard pool.

        Closed: always.  Open: no, until the cooldown elapses — then
        the breaker half-opens and starts issuing probe tokens.
        Half-open: yes for up to ``probe_batches`` outstanding probes,
        no for everyone else (they brown out while the probes decide).
        """
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_OPEN:
                now = self._clock.now()
                if now - self._opened_at < self.policy.cooldown_s:
                    return False
                self._become(BREAKER_HALF_OPEN)
                self._probes_allowed = self.policy.probe_batches
                self._probes_succeeded = 0
            # half-open: hand out the remaining probe tokens
            if self._probes_allowed > 0:
                self._probes_allowed -= 1
                return True
            return False

    # ------------------------------------------------------------------
    # Outcome reporting
    # ------------------------------------------------------------------
    def record_success(self) -> None:
        """A shard batch completed; may close a half-open breaker."""
        with self._lock:
            if self._state != BREAKER_HALF_OPEN:
                return
            self._probes_succeeded += 1
            if self._probes_succeeded >= self.policy.probe_batches:
                self._become(BREAKER_CLOSED)
                self._failures.clear()

    def record_failure(self) -> None:
        """A shard batch failed (crash past replay, timeout past hedge)."""
        with self._lock:
            now = self._clock.now()
            if self._state == BREAKER_HALF_OPEN:
                # A probe failed: the pool is still sick, back to open.
                self._become(BREAKER_OPEN)
                self._opened_at = now
                return
            if self._state == BREAKER_OPEN:
                return
            self._failures.append(now)
            horizon = now - self.policy.window_s
            while self._failures and self._failures[0] < horizon:
                self._failures.popleft()
            if len(self._failures) >= self.policy.failure_threshold:
                self._become(BREAKER_OPEN)
                self._opened_at = now

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def transitions(self) -> int:
        with self._lock:
            return self._transitions

    def _become(self, state: str) -> None:
        # caller holds the lock
        if state != self._state:
            self._state = state
            self._transitions += 1
