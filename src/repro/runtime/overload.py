"""SLO-driven overload control: an explicit, observable degradation ladder.

The admission layer (:mod:`repro.runtime.ingest`) treats overload as a
per-frame decision — block, reject, or shed one queued frame.  That is
the right *edge* behaviour, but a serving tier under sustained pressure
needs a *policy* answer too: what quality/latency trade does the whole
service make, and when does it make it back?  This module is that
policy.  An :class:`OverloadController` watches the signals the runtime
already produces (end-to-end p95 latency from the ingestor's window,
admitted-but-unfinished queue depth) against a declared
:class:`ServiceLevelObjective` and walks a three-rung ladder::

    full  ->  shed_best_effort  ->  brownout
     ^                                 |
     +----- (sustained recovery) ------+

``full``
    Serve everything at full quality.
``shed_best_effort``
    The ingestor stops admitting :class:`~repro.runtime.ingest.
    ServiceClass` ``best_effort`` frames and drops the ones already
    queued — interactive and standard traffic keeps its seats.
``brownout``
    A pool-backed service stops offering batches to its shard/host pool
    and serves from the in-process mapper (the breaker's brownout path,
    entered deliberately); an in-process service keeps shedding.

There is no cheaper-plan rung: every float plan runs the fused engine,
and the staged plan such a rung would pin measured slower than it from
128² frames up.

Both directions are **hysteretic**: climbing one rung takes
``climb_patience`` consecutive SLO-breaching observations, descending
takes ``descend_patience`` consecutive observations *below* the recovery
band (``recover_fraction`` of the SLO), and observations between the two
bands reset both counters — a service hovering at its SLO holds its rung
instead of flapping.  ``min_dwell_s`` adds a time floor between
transitions on top of the counts (the injected clock makes it
fake-clock testable, like the circuit breaker).

Every transition is counted and the current rung is surfaced through
:class:`~repro.runtime.reliability.ReliabilityStats` (``ladder_rung`` /
``ladder_transitions`` / ``ladder_shed``) and the CLI report.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.errors import ToneMapError
from repro.runtime.clock import MONOTONIC, Clock

#: Ladder rungs, mildest first.  The index order is the climb order.
LADDER_FULL = "full"
LADDER_SHED = "shed_best_effort"
LADDER_BROWNOUT = "brownout"

LADDER = (LADDER_FULL, LADDER_SHED, LADDER_BROWNOUT)


@dataclass(frozen=True)
class ServiceLevelObjective:
    """The declared healthy envelope the ladder defends.

    Parameters
    ----------
    p95_ms:
        End-to-end p95 latency bound (submit to result, as measured by
        the ingestor's sliding window).  ``None`` means latency does
        not drive the ladder.
    queue_depth:
        Most admitted-but-unfinished frames the service considers
        healthy.  ``None`` means depth does not drive the ladder.

    At least one bound must be declared — an SLO with no objective
    cannot be breached or met.
    """

    p95_ms: Optional[float] = None
    queue_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.p95_ms is None and self.queue_depth is None:
            raise ToneMapError(
                "a ServiceLevelObjective needs p95_ms and/or queue_depth"
            )
        if self.p95_ms is not None and self.p95_ms <= 0:
            raise ToneMapError(
                f"slo p95_ms must be > 0, got {self.p95_ms}"
            )
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ToneMapError(
                f"slo queue_depth must be >= 1, got {self.queue_depth}"
            )


@dataclass(frozen=True)
class OverloadPolicy:
    """Tuning knobs for :class:`OverloadController`.

    Parameters
    ----------
    slo:
        The objective being defended.
    climb_patience:
        Consecutive SLO-breaching observations required per rung up.
    descend_patience:
        Consecutive recovered observations required per rung down —
        deliberately larger than ``climb_patience`` by default, so the
        ladder reacts fast and relaxes slowly.
    recover_fraction:
        The recovery band: an observation only counts toward descending
        when every declared signal sits at or below
        ``recover_fraction x`` its SLO bound.  Observations between the
        recovery band and the SLO reset both patience counters (the
        hysteresis dead zone).
    min_dwell_s:
        Time floor between transitions, measured on the injected clock;
        0 disables it and the patience counts alone gate transitions.
    """

    slo: ServiceLevelObjective
    climb_patience: int = 2
    descend_patience: int = 6
    recover_fraction: float = 0.7
    min_dwell_s: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.slo, ServiceLevelObjective):
            raise ToneMapError(
                f"slo must be a ServiceLevelObjective, got {type(self.slo)!r}"
            )
        if self.climb_patience < 1 or self.descend_patience < 1:
            raise ToneMapError(
                "climb_patience and descend_patience must be >= 1, got "
                f"{self.climb_patience}/{self.descend_patience}"
            )
        if not 0.0 < self.recover_fraction <= 1.0:
            raise ToneMapError(
                f"recover_fraction must be in (0, 1], got "
                f"{self.recover_fraction}"
            )
        if self.min_dwell_s < 0:
            raise ToneMapError(
                f"min_dwell_s must be >= 0, got {self.min_dwell_s}"
            )


class OverloadController:
    """Walks the degradation ladder from (p95, queue-depth) observations.

    Thread-safe and clock-injected; the ingestor feeds
    :meth:`observe` once per completed batch and applies the returned
    rung.  The
    controller holds no references to the service — it is a pure policy
    object, so tests drive it observation by observation with a
    :class:`~repro.runtime.clock.FakeClock`.
    """

    def __init__(
        self,
        policy: OverloadPolicy,
        clock: Clock = MONOTONIC,
    ):
        if not isinstance(policy, OverloadPolicy):
            raise ToneMapError(
                f"expected an OverloadPolicy, got {type(policy)!r}"
            )
        self.policy = policy
        self._clock = clock
        self._lock = threading.Lock()
        self._index = 0
        self._hot = 0
        self._cold = 0
        self._transitions = 0
        self._transitioned_at: Optional[float] = None

    def observe(self, p95_ms: Optional[float], queue_depth: int) -> str:
        """Feed one load observation; returns the (possibly new) rung.

        ``p95_ms`` may be ``None`` (or 0.0, the empty-window value)
        before any latency sample exists — only the declared,
        measurable signals participate in the breach/recovery decision.
        """
        slo = self.policy.slo
        if p95_ms is not None and p95_ms <= 0.0:
            p95_ms = None  # empty latency window: no signal yet
        with self._lock:
            breach = (
                slo.p95_ms is not None
                and p95_ms is not None
                and p95_ms > slo.p95_ms
            ) or (
                slo.queue_depth is not None
                and queue_depth > slo.queue_depth
            )
            recovered = not breach and (
                slo.p95_ms is None
                or p95_ms is None
                or p95_ms <= slo.p95_ms * self.policy.recover_fraction
            ) and (
                slo.queue_depth is None
                or queue_depth
                <= slo.queue_depth * self.policy.recover_fraction
            )
            if breach:
                self._hot += 1
                self._cold = 0
            elif recovered:
                self._cold += 1
                self._hot = 0
            else:
                # The dead zone between recovery band and SLO: hold the
                # rung, forget any streak — that is the hysteresis.
                self._hot = 0
                self._cold = 0
            if breach and self._hot >= self.policy.climb_patience:
                if self._index < len(LADDER) - 1 and self._dwelled():
                    self._index += 1
                    self._note_transition()
                self._hot = 0
            elif recovered and self._cold >= self.policy.descend_patience:
                if self._index > 0 and self._dwelled():
                    self._index -= 1
                    self._note_transition()
                self._cold = 0
            return LADDER[self._index]

    def _dwelled(self) -> bool:
        # caller holds the lock
        if self.policy.min_dwell_s <= 0 or self._transitioned_at is None:
            return True
        return (
            self._clock.now() - self._transitioned_at
            >= self.policy.min_dwell_s
        )

    def _note_transition(self) -> None:
        # caller holds the lock
        self._transitions += 1
        self._transitioned_at = self._clock.now()

    @property
    def rung(self) -> str:
        """The ladder rung currently in force."""
        with self._lock:
            return LADDER[self._index]

    @property
    def transitions(self) -> int:
        """Rung changes since construction (both directions)."""
        with self._lock:
            return self._transitions


def rung_index(rung: str) -> int:
    """Position of ``rung`` on the ladder (for severity comparisons)."""
    try:
        return LADDER.index(rung)
    except ValueError:
        raise ToneMapError(
            f"unknown ladder rung {rung!r}; expected one of {LADDER}"
        ) from None
