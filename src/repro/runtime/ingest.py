"""Async ingestion front-end: continuous arrivals, fair multi-tenant
coalescing, deadline batching.

The paper frames tone mapping as a continuous imaging workload (video
frames arriving one by one), but batching only pays when same-shape frames
are stacked.  :class:`ToneMapIngestor` bridges the two: submissions are
admitted one at a time (from threads via :meth:`submit` or from an
``asyncio`` event loop via :meth:`submit_async`), parked in one
arrival-ordered queue per frame shape, and flushed to the backing
:class:`~repro.runtime.service.ToneMapService` as coalesced same-shape
batches when either a shape has ``batch_size`` frames waiting or its
oldest occupant has waited ``max_delay_ms`` — the classic
batching-under-a-latency-deadline trade.

**Multi-tenant fairness.**  Every submission carries a ``tenant``
identity.  Admission bounds stay per tenant (each tenant has its own
``queue_limit`` and admission policy, so one tenant exhausting its
budget never evicts or blocks another); admitted frames of all tenants
wait in one arrival-ordered list per frame shape.  A
deficit-round-robin scheduler (:class:`DeficitRoundRobin`) assembles
each batch by granting seats to tenants in proportion to their
:class:`TenantConfig.weight`, and EDF picks which of a tenant's queued
frames fill its seats — so a batch coalesces frames *across* tenants
and a heavy tenant with a thousand queued frames cannot push a light
tenant's single frame behind them.  Crucially, frames wait in the
ingestor's shape queues (where the scheduler can reorder them), not in
the service's FIFO thread pool: the ingestor dispatches at most
``max_inflight_batches`` concurrent batches — enough to keep every pool
thread busy, never enough to recreate a deep FIFO downstream.  This is
the software analogue of the paper's data-mover discipline: the
accelerator stays saturated from a short, fair, scheduler-controlled
queue.

Admission control per tenant (and globally) supports three
:class:`backpressure policies <BackpressurePolicy>`:

``block``
    The submitter waits for a slot (lossless; callers feel the slowdown).
``reject``
    The submitter gets :class:`~repro.errors.ServiceOverloadedError`
    immediately (shed load at the edge, keep latency bounded).
``shed-oldest``
    The oldest *not yet dispatched* frame is dropped — over a tenant
    limit, the tenant's own oldest; over the global limit, the globally
    oldest — and the newcomer is admitted (freshest-data-wins, the right
    policy for live video).  Victims of one shed storm fail with a
    single coalesced :class:`~repro.errors.ServiceOverloadedError`
    (its ``shed_count`` grows as victims join), not one context per
    frame.  If every admitted frame is already executing, the submitter
    blocks until a slot frees.

**Zero-copy dispatch.**  Every batch is written directly into a pooled
shared-memory input stack of the service's backend at dispatch time —
one producer write per frame, no ``np.stack``, no re-staging — and
handed to the service as a pointer (segment name plus frame count),
whether the backend is a shard pool, a host pool or the in-process
transport.  Results resolve through ordinary futures: by default the
service materializes each batch's outputs once (the safety fallback —
an arbitrary future consumer cannot be trusted to release a slab
promptly); with ``lease_results=True`` futures instead resolve to
zero-copy :class:`~repro.runtime.arena.ResultHandle` views that the
consumer explicitly releases back to the slab ring.

**Service classes and EDF.**  Each submission also carries a
:class:`ServiceClass` (``interactive`` / ``standard`` / ``best_effort``,
the ``priority=`` argument).  Classes layer *on top of* DRR, they do not
replace it: fairness still decides how many seats each tenant gets per
batch, and the class + deadline decide *which* of the tenant's queued
frames fill those seats — earliest absolute deadline first, class rank
breaking ties (EDF among the tenant's queued frames).  Shedding is
class-aware in the same spirit: ``shed-oldest`` victimizes best-effort
frames first, then standard, and an interactive frame is never shed
before its deadline has actually expired.

**Overload ladder.**  With ``overload=`` set, an
:class:`~repro.runtime.overload.OverloadController` watches the
end-to-end p95 and queue depth after every completed batch and walks
the degradation ladder (full → shed best-effort → brownout) with
hysteresis; the ingestor applies each rung — suspending best-effort
admission and dropping queued best-effort frames, forcing brownout —
and surfaces
``ladder_rung`` / ``ladder_transitions`` / ``ladder_shed`` on
:class:`~repro.runtime.reliability.ReliabilityStats`.

**Drain.**  :meth:`drain` is the zero-loss shutdown: stop admitting,
fail queued best-effort frames with one deterministic
:class:`~repro.errors.ServiceOverloadedError`, serve every queued
interactive/standard frame to a real result, wait for in-flight
batches, stop the scheduler.  :meth:`close` keeps its old contract
(flush *everything*, including best-effort).

Queue depth, reject/shed counts, end-to-end latency percentiles, and the
per-tenant breakdown (:class:`~repro.runtime.service.TenantStats`,
including Jain's ``fairness_index``) are reported on
:class:`~repro.runtime.service.ServiceStats` via
:attr:`ToneMapIngestor.stats`.  The full data path (ingest → DRR
schedule → shard → batch) is diagrammed in ``docs/architecture.md``;
the two-tenant contention benchmark lives in
``benchmarks/bench_runtime.py`` (see ``docs/benchmarks.md``).
"""

from __future__ import annotations

import asyncio
import concurrent.futures as futures_module
import enum
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, replace
from numbers import Real
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import (
    DeadlineExceededError,
    ServiceOverloadedError,
    ToneMapError,
)
from repro.image.hdr import HDRImage
from repro.runtime.clock import MONOTONIC, Clock
from repro.runtime.overload import (
    LADDER_FULL,
    LADDER_SHED,
    OverloadController,
    OverloadPolicy,
    ServiceLevelObjective,
    rung_index,
)
from repro.runtime.service import (
    LATENCY_WINDOW,
    ServiceStats,
    TenantStats,
    ToneMapService,
    _percentile,
)

#: Tenant identity used when callers do not name one.
DEFAULT_TENANT = "default"


class BackpressurePolicy(enum.Enum):
    """What :meth:`ToneMapIngestor.submit` does when a queue is full."""

    BLOCK = "block"
    REJECT = "reject"
    SHED_OLDEST = "shed-oldest"


class ServiceClass(enum.Enum):
    """Priority class of one submission.

    The class decides two things: EDF tie-breaking among a tenant's
    queued frames (interactive frames outrank standard outrank
    best-effort when deadlines are equal or absent) and shed order
    (best-effort sheds first, standard next; an interactive frame is
    only ever shed once its own deadline has expired).  It never
    changes how many seats a tenant gets — that stays DRR's job.
    """

    INTERACTIVE = "interactive"
    STANDARD = "standard"
    BEST_EFFORT = "best_effort"


#: EDF tie-break rank: lower serves first.
_CLASS_RANK = {
    ServiceClass.INTERACTIVE: 0,
    ServiceClass.STANDARD: 1,
    ServiceClass.BEST_EFFORT: 2,
}

#: Shed preference: lower sheds first.
_SHED_RANK = {
    ServiceClass.BEST_EFFORT: 0,
    ServiceClass.STANDARD: 1,
    ServiceClass.INTERACTIVE: 2,
}

#: Ladder index at and above which best-effort admission is suspended.
_SHED_INDEX = rung_index(LADDER_SHED)

#: Dropped queued frames, each with the error its future settles with:
#: what the shedding helpers return under the lock for
#: ``ToneMapIngestor._settle`` to settle after it is released.
_Dropped = List[Tuple["_Pending", BaseException]]


def _coerce_class(
    priority: Union["ServiceClass", str, None]
) -> "ServiceClass":
    """Accept a ServiceClass, its string value, or None (standard)."""
    if priority is None:
        return ServiceClass.STANDARD
    if isinstance(priority, ServiceClass):
        return priority
    if isinstance(priority, str):
        try:
            return ServiceClass(priority.replace("-", "_"))
        except ValueError:
            pass
    raise ToneMapError(
        f"priority must be a ServiceClass or one of "
        f"{[c.value for c in ServiceClass]}, got {priority!r}"
    )


def _edf_key(pending: "_Pending"):
    """Earliest deadline first; class rank, then arrival, break ties."""
    return (
        pending.deadline if pending.deadline is not None else float("inf"),
        _CLASS_RANK[pending.service_class],
        pending.enqueued_at,
    )


def _resolve(
    future: Future, result=None, exc: Optional[BaseException] = None
) -> bool:
    """Settle ``future`` with ``exc``, else ``result``.

    Returns False when the caller cancelled the future first: its
    outcome is simply dropped, and settling the rest of a batch or a
    shed storm must go on.
    """
    try:
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(result)
    except futures_module.InvalidStateError:
        return False
    return True


@dataclass(frozen=True)
class TenantConfig:
    """Scheduling and admission parameters of one tenant.

    Parameters
    ----------
    weight:
        Deficit-round-robin share.  A tenant with weight 2 receives two
        batch seats for every one a weight-1 tenant receives while both
        have frames queued; weights are relative, any positive scale
        works.
    queue_limit:
        This tenant's own in-flight bound (admitted but unfinished
        frames).  ``None`` inherits the ingestor's
        ``per_tenant_queue_limit`` default.
    policy:
        Admission policy when *this tenant's* limit is hit.  ``None``
        inherits the ingestor's policy.
    """

    weight: float = 1.0
    queue_limit: Optional[int] = None
    policy: Optional[Union[BackpressurePolicy, str]] = None

    def __post_init__(self) -> None:
        if not self.weight > 0.0:
            raise ToneMapError(
                f"tenant weight must be > 0, got {self.weight}"
            )
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ToneMapError(
                f"tenant queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.policy is not None:
            object.__setattr__(
                self, "policy", BackpressurePolicy(self.policy)
            )


class DeficitRoundRobin:
    """Weighted fair seat allocation across tenants' backlogs.

    Classic deficit round robin with unit frame cost (every seat in a
    same-shape batch is the same size): each tenant's deficit grows by
    its weight once per rotation and is spent one seat per queued frame.
    Deficits persist *across* allocations while a tenant stays
    backlogged — so fractional weights (0.5 = one seat every other
    rotation) and leftover seats are honored over time — and reset when
    its backlog drains (a tenant cannot bank credit while idle, the
    property that makes DRR starvation-free).

    Deterministic and clock-free so tests can drive it grant by grant;
    the ingestor owns one instance per shape-independent scheduler.
    """

    def __init__(self):
        self._deficit: Dict[str, float] = {}
        self._rotation: deque = deque()

    def allocate(
        self,
        queued: Mapping[str, int],
        weights: Mapping[str, float],
        seats: int,
    ) -> Dict[str, int]:
        """Grant up to ``seats`` batch seats across backlogged tenants.

        ``queued`` maps tenant → frames waiting (non-positive entries
        are ignored); ``weights`` maps tenant → DRR weight (default 1).
        Returns tenant → seats granted; grants sum to
        ``min(seats, total queued)``.
        """
        for name, backlog in queued.items():
            if backlog > 0 and name not in self._deficit:
                self._deficit[name] = 0.0
                self._rotation.append(name)
        active = deque(
            name for name in self._rotation if queued.get(name, 0) > 0
        )
        remaining = {name: queued[name] for name in active}
        grants: Dict[str, int] = {}
        while seats > 0 and active:
            # Normalize increments so the heaviest *backlogged* tenant
            # accrues exactly one seat per rotation: relative shares are
            # unchanged (units of deficit are arbitrary), but a tiny
            # absolute weight (1e-6 is valid) can no longer make this
            # loop spin millions of rotations while the caller holds
            # the ingestor lock — progress is ≥ 1 seat per rotation.
            scale = max(float(weights.get(n, 1.0)) for n in active)
            name = active.popleft()
            self._deficit[name] += float(weights.get(name, 1.0)) / scale
            take = min(int(self._deficit[name]), remaining[name], seats)
            if take > 0:
                grants[name] = grants.get(name, 0) + take
                self._deficit[name] -= take
                remaining[name] -= take
                seats -= take
            if remaining[name] > 0:
                active.append(name)
            else:
                # Emptied queues forfeit their credit: idle tenants must
                # not bank deficit against future storms.
                self._deficit[name] = 0.0
        if self._rotation:
            # Start the next allocation one tenant later so queue-map
            # ordering gives nobody a persistent positional edge.
            self._rotation.rotate(-1)
        return grants


@dataclass(eq=False)
class _Pending:
    """One admitted frame waiting in its shape's queue.

    Compared and hashed by identity: field equality would compare images.
    """

    name: str
    future: Future
    enqueued_at: float
    image: Optional[HDRImage]
    tenant: str
    #: Absolute (clock-relative) latency deadline, or None for no budget.
    deadline: Optional[float] = None
    service_class: ServiceClass = ServiceClass.STANDARD


class _TenantState:
    """Mutable per-tenant bookkeeping (guarded by the ingestor lock)."""

    __slots__ = (
        "name", "weight", "queue_limit", "policy", "in_flight",
        "submitted", "served", "rejected", "shed", "failed", "queue_peak",
        "latencies_ms",
    )

    def __init__(self, name: str, config: TenantConfig):
        self.name = name
        self.weight = config.weight
        self.queue_limit = config.queue_limit
        self.policy = config.policy
        self.in_flight = 0
        self.submitted = 0
        self.served = 0
        self.rejected = 0
        self.shed = 0
        self.failed = 0
        self.queue_peak = 0
        self.latencies_ms: deque = deque(maxlen=LATENCY_WINDOW)


@dataclass
class _Flush:
    """One coalesced batch on its way to the service (slot order)."""

    items: List[_Pending]
    shape: tuple

    @property
    def count(self) -> int:
        return len(self.items)


class ToneMapIngestor:
    """Streams single-image arrivals into fair, coalesced service batches.

    Parameters
    ----------
    service:
        The backing :class:`~repro.runtime.service.ToneMapService`.  The
        ingestor borrows it (several ingestors may share one) and does
        *not* close it; ``service.batch_size`` is the coalescing target.
    max_delay_ms:
        Longest an admitted image may wait for same-shape company before
        its partial batch is flushed anyway.  The knob trades latency
        (small values) against batching efficiency (large values).
    queue_limit:
        Maximum in-flight images across all tenants (admitted but
        unfinished).  Admissions beyond it trigger ``policy``.
    policy:
        Default :class:`BackpressurePolicy` (or its string value);
        individual tenants may override via :class:`TenantConfig`.
    tenants:
        Optional mapping of tenant name → :class:`TenantConfig` (or a
        bare number, shorthand for a weight).  Unknown tenants are
        auto-registered at first submission with default config.
        Tenant identities are service classes (a bounded set — "video",
        "thumbnails", a customer tier), not per-request ids: per-tenant
        state (counters, latency windows, scheduler bookkeeping) is
        retained for the ingestor's lifetime so ``stats`` stays
        continuous, which means unbounded tenant cardinality grows
        memory without bound.
    per_tenant_queue_limit:
        Default per-tenant in-flight bound for tenants whose config
        does not set one (``None``: only the global ``queue_limit``
        binds).
    lease_results:
        Resolve futures to zero-copy
        :class:`~repro.runtime.arena.ResultHandle` views (the consumer
        must release them) instead of materialized
        :class:`~repro.image.hdr.HDRImage` copies.
    max_inflight_batches:
        Dispatch gate: how many batches may be in the service at once.
        Defaults to the service's thread-pool width — enough to keep
        every worker busy while excess frames wait where the DRR
        scheduler can keep them fair.
    default_deadline_ms:
        Latency budget stamped on every frame whose ``submit`` call
        does not pass its own ``deadline_ms``.  ``None`` (the default)
        stamps no budget — frames wait indefinitely, exactly the old
        behaviour.
    overload:
        Enables the SLO degradation ladder: a
        :class:`~repro.runtime.overload.ServiceLevelObjective` (wrapped
        in a default policy), an
        :class:`~repro.runtime.overload.OverloadPolicy`, or a
        pre-built :class:`~repro.runtime.overload.OverloadController`
        (shared controllers let several ingestors walk one ladder).
        ``None`` (the default) disables the ladder entirely.
    clock:
        Injectable monotonic time source (:mod:`repro.runtime.clock`);
        every ingestor timestamp — enqueue times, coalescing deadlines,
        frame latency budgets, latency stats — reads this one clock, so
        chaos tests fake time instead of sleeping.

    Use as a context manager or call :meth:`close` when done.
    """

    def __init__(
        self,
        service: ToneMapService,
        max_delay_ms: float = 5.0,
        queue_limit: int = 64,
        policy: Union[BackpressurePolicy, str] = BackpressurePolicy.BLOCK,
        tenants: Optional[Mapping[str, Union[TenantConfig, Real]]] = None,
        per_tenant_queue_limit: Optional[int] = None,
        lease_results: bool = False,
        max_inflight_batches: Optional[int] = None,
        default_deadline_ms: Optional[float] = None,
        overload: Optional[
            Union[OverloadController, OverloadPolicy, ServiceLevelObjective]
        ] = None,
        clock: Optional[Clock] = None,
    ):
        if max_delay_ms < 0:
            raise ToneMapError(
                f"max_delay_ms must be >= 0, got {max_delay_ms}"
            )
        if queue_limit < 1:
            raise ToneMapError(f"queue_limit must be >= 1, got {queue_limit}")
        if per_tenant_queue_limit is not None and per_tenant_queue_limit < 1:
            raise ToneMapError(
                "per_tenant_queue_limit must be >= 1, got "
                f"{per_tenant_queue_limit}"
            )
        if max_inflight_batches is not None and max_inflight_batches < 1:
            raise ToneMapError(
                "max_inflight_batches must be >= 1, got "
                f"{max_inflight_batches}"
            )
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ToneMapError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}"
            )
        self.service = service
        self.max_delay = max_delay_ms / 1e3
        self.queue_limit = queue_limit
        self.default_deadline_ms = default_deadline_ms
        self._clock = clock if clock is not None else MONOTONIC
        if overload is None or isinstance(overload, OverloadController):
            self._overload = overload
        elif isinstance(overload, OverloadPolicy):
            self._overload = OverloadController(overload, clock=self._clock)
        elif isinstance(overload, ServiceLevelObjective):
            self._overload = OverloadController(
                OverloadPolicy(slo=overload), clock=self._clock
            )
        else:
            raise ToneMapError(
                "overload must be an OverloadController, OverloadPolicy "
                f"or ServiceLevelObjective, got {type(overload)!r}"
            )
        self.policy = BackpressurePolicy(policy)
        self.lease_results = bool(lease_results)
        self.per_tenant_queue_limit = per_tenant_queue_limit
        self.max_inflight_batches = (
            max_inflight_batches
            if max_inflight_batches is not None
            else max(1, service.workers)
        )

        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)
        self._tenants: Dict[str, _TenantState] = {}
        self._drr = DeficitRoundRobin()
        # Queued (admitted, not yet dispatched) frames of every tenant,
        # one arrival-ordered list per frame shape: [0] is the oldest.
        self._queued: Dict[tuple, List[_Pending]] = {}
        self._in_flight = 0
        self._dispatched = 0
        self._closed = False
        self._draining = False
        self._queue_peak = 0
        self._rejected = 0
        self._shed = 0
        self._deadline_shed = 0
        self._ladder_rung = LADDER_FULL
        self._ladder_shed = 0
        # One coalesced shed-storm error context per binding scope (a
        # tenant name, or None for the global limit), reset at the next
        # dispatch — see _shed_one_locked.
        self._storms: Dict[Optional[str], ServiceOverloadedError] = {}
        self._latencies_ms: deque = deque(maxlen=LATENCY_WINDOW)
        for name, config in (tenants or {}).items():
            self._register_tenant_locked(name, config)
        self._coalescer = threading.Thread(
            target=self._coalesce_loop, name="tonemap-ingest", daemon=True
        )
        self._coalescer.start()

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------
    def _register_tenant_locked(
        self, name: str, config: Union[TenantConfig, Real]
    ) -> _TenantState:
        if isinstance(config, Real) and not isinstance(config, bool):
            config = TenantConfig(weight=float(config))
        if not isinstance(config, TenantConfig):
            raise ToneMapError(
                f"tenant config must be a TenantConfig or a weight, got "
                f"{type(config)!r}"
            )
        state = _TenantState(name, config)
        if state.queue_limit is None:
            state.queue_limit = self.per_tenant_queue_limit
        self._tenants[name] = state
        return state

    def _tenant_locked(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = self._register_tenant_locked(name, TenantConfig())
        return state

    # ------------------------------------------------------------------
    # Submission APIs
    # ------------------------------------------------------------------
    def submit(
        self,
        image: HDRImage,
        tenant: str = DEFAULT_TENANT,
        deadline_ms: Optional[float] = None,
        priority: Optional[Union[ServiceClass, str]] = None,
    ) -> "Future[HDRImage]":
        """Admit one image (blocking API); resolves to its output.

        Applies the tenant's (then the global) backpressure policy when
        a queue limit is hit, then parks the frame in its shape's queue
        for the DRR scheduler to batch.

        ``deadline_ms`` (default: the ingestor's ``default_deadline_ms``)
        stamps an end-to-end latency budget on the frame: if it expires
        while the frame is still queued, the frame is shed — its future
        fails with :class:`~repro.errors.DeadlineExceededError` and its
        slot frees immediately — and whatever budget remains at dispatch
        rides into the pool as the batch's execution timeout (the
        in-process backend cannot stop a thread and ignores it).

        ``priority`` names the frame's :class:`ServiceClass` (enum or
        string; default ``standard``): EDF rank among the tenant's
        queued frames and shed protection — see the module docstring.
        Best-effort frames are rejected outright while the overload
        ladder sits at ``shed_best_effort`` or above.
        """
        if not isinstance(image, HDRImage):
            raise ToneMapError(f"expected HDRImage, got {type(image)!r}")
        service_class = _coerce_class(priority)
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        if deadline_ms is not None and deadline_ms <= 0:
            raise ToneMapError(
                f"deadline_ms must be > 0, got {deadline_ms}"
            )
        with self._lock:
            if self._closed or self._draining:
                raise ToneMapError(
                    "ingestor is draining" if self._draining
                    else "ingestor is closed"
                )
            state = self._tenant_locked(tenant)
            if (
                service_class is ServiceClass.BEST_EFFORT
                and self._overload is not None
                and rung_index(self._ladder_rung) >= _SHED_INDEX
            ):
                state.rejected += 1
                self._rejected += 1
                self._ladder_shed += 1
                raise ServiceOverloadedError(
                    "best-effort admission suspended by the overload "
                    f"ladder (rung={self._ladder_rung})",
                    tenant=tenant,
                )
            while True:
                over_tenant = (
                    state.queue_limit is not None
                    and state.in_flight >= state.queue_limit
                )
                over_global = self._in_flight >= self.queue_limit
                if not over_tenant and not over_global:
                    break
                policy = state.policy or self.policy
                if policy is BackpressurePolicy.REJECT:
                    state.rejected += 1
                    self._rejected += 1
                    if over_tenant:
                        raise ServiceOverloadedError(
                            f"tenant {tenant!r} queue limit "
                            f"{state.queue_limit} reached "
                            f"({state.in_flight} frames in flight)",
                            tenant=tenant,
                        )
                    raise ServiceOverloadedError(
                        f"queue limit {self.queue_limit} reached "
                        f"({self._in_flight} images in flight)",
                        tenant=tenant,
                    )
                if policy is BackpressurePolicy.SHED_OLDEST and (
                    # Over a tenant limit only that tenant's frames are
                    # fair game; over the global limit the globally
                    # oldest queued frame goes (whoever queued it — the
                    # per-tenant limits are what keep a heavy tenant
                    # from farming the global shed).
                    dropped := self._shed_one_locked(
                        state if over_tenant else None
                    )
                ):
                    # Settle the victim without the lock (its callbacks
                    # may call back in), then look at the limits again.
                    self._lock.release()
                    try:
                        self._settle(dropped)
                    finally:
                        self._lock.acquire()
                else:
                    # BLOCK, or SHED_OLDEST with nothing left to shed
                    # (every admitted image is already executing): wait
                    # for a slot.
                    self._space.wait()
                if self._closed or self._draining:
                    raise ToneMapError(
                        "ingestor is draining" if self._draining
                        else "ingestor is closed"
                    )
            now = self._clock.now()
            pending = _Pending(
                image.name,
                Future(),
                now,
                image,
                tenant,
                deadline=(
                    None if deadline_ms is None else now + deadline_ms / 1e3
                ),
                service_class=service_class,
            )
            self._queued.setdefault(image.pixels.shape, []).append(pending)
            state.in_flight += 1
            state.submitted += 1
            state.queue_peak = max(state.queue_peak, state.in_flight)
            self._in_flight += 1
            self._queue_peak = max(self._queue_peak, self._in_flight)
            self._arrived.notify()
        return pending.future

    async def submit_async(
        self,
        image: HDRImage,
        tenant: str = DEFAULT_TENANT,
        deadline_ms: Optional[float] = None,
        priority: Optional[Union[ServiceClass, str]] = None,
    ) -> HDRImage:
        """Admit one image from an event loop; returns the output.

        Admission (which may block under the ``block`` policy) runs on the
        loop's default executor so the event loop itself never stalls; the
        result is awaited without blocking either.
        """
        loop = asyncio.get_running_loop()
        future = await loop.run_in_executor(
            None, lambda: self.submit(image, tenant, deadline_ms, priority)
        )
        return await asyncio.wrap_future(future)

    def map_many(
        self,
        images: Sequence[HDRImage],
        tenant: str = DEFAULT_TENANT,
        deadline_ms: Optional[float] = None,
        priority: Optional[Union[ServiceClass, str]] = None,
    ) -> list:
        """Submit many images one by one and wait for all outputs in order.

        Convenience for scripted workloads; under the ``reject`` /
        ``shed-oldest`` policies a dropped submission surfaces here as
        :class:`~repro.errors.ServiceOverloadedError`, and an expired
        ``deadline_ms`` as :class:`~repro.errors.DeadlineExceededError`.
        """
        futures = [
            self.submit(image, tenant, deadline_ms, priority)
            for image in images
        ]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Shedding
    # ------------------------------------------------------------------
    def _unqueue_locked(self, doomed) -> List[_Pending]:
        """Take every queued frame ``doomed(frame)`` selects out of its
        queue; returns them, each shape's in arrival order.

        The one exit of a queued frame that will never be dispatched:
        each loses its queue entry and its image here, and its tenant
        and global in-flight slots in :meth:`_settle`.  Callers only
        pick the victims, count them and name their errors.  Queued
        frames hold no arena slots (the producer write happens at
        dispatch), so there is nothing else to release — the
        slot-accounting tests assert exactly that.
        """
        dropped: List[_Pending] = []
        for shape, queue in list(self._queued.items()):
            victims = [pending for pending in queue if doomed(pending)]
            if not victims:
                continue
            gone = set(victims)
            queue[:] = [pending for pending in queue if pending not in gone]
            if not queue:
                del self._queued[shape]
            dropped.extend(victims)
        for pending in dropped:
            pending.image = None
        return dropped

    def _settle(self, dropped: _Dropped) -> None:
        """Settle dropped frames' futures, then free their slots.

        Called without the lock, so a done-callback may call back into
        the ingestor.  Like :meth:`_complete`, it settles before it
        frees: :meth:`close` returns once nothing is in flight, and
        every future handed out must have resolved by then.
        """
        if not dropped:
            return
        for pending, exc in dropped:
            _resolve(pending.future, exc=exc)
        with self._lock:
            for pending, _ in dropped:
                self._tenants[pending.tenant].in_flight -= 1
            self._in_flight -= len(dropped)
            self._space.notify_all()

    def _shed_one_locked(
        self, state: Optional[_TenantState] = None
    ) -> _Dropped:
        """Drop one still-queued frame, class-aware; returns it and its
        error, or nothing when no frame may be shed.

        The victim is the *oldest frame of the most sheddable class*
        present: best-effort frames go first, then standard, and an
        interactive frame is only ever a candidate once its own
        deadline has already expired — a queue of purely standard
        frames therefore sheds exactly the oldest frame, the pre-class
        behaviour; an exact tie in enqueue time (only a fake clock makes
        one) goes to the earlier arrival in a shape's queue.  ``state``
        narrows the search to one tenant (its own limit was hit);
        ``None`` sheds across all tenants.  Victims of
        one storm share a single coalesced
        :class:`ServiceOverloadedError` — the context is created once
        per storm (reset at the next dispatch) and its ``shed_count``
        grows per victim while the storm lasts, so a thousand-frame
        storm does not build a thousand exception objects (the price of
        sharing: ``shed_count`` is a live storm counter, not a
        per-victim snapshot).  Storms are coalesced *per binding
        scope*: each tenant limit gets its own context (its ``tenant``
        names that tenant) and the global limit gets its own
        (``tenant=None``, since it may shed several tenants' frames) —
        concurrent storms never cross-attribute metadata.
        """
        now = self._clock.now()
        victim = min(
            (
                pending
                for queue in self._queued.values()
                for pending in queue
                if (state is None or pending.tenant == state.name)
                # An interactive frame never sheds before its deadline.
                and (
                    pending.service_class is not ServiceClass.INTERACTIVE
                    or (
                        pending.deadline is not None
                        and pending.deadline <= now
                    )
                )
            ),
            key=lambda pending: (
                _SHED_RANK[pending.service_class],
                pending.enqueued_at,
            ),
            default=None,
        )
        if victim is None:
            return []
        self._unqueue_locked(lambda pending: pending is victim)
        self._tenants[victim.tenant].shed += 1
        self._shed += 1
        scope = state.name if state is not None else None
        storm = self._storms.get(scope)
        if storm is None:
            if state is not None:
                bound = (
                    f"tenant {state.name!r} queue_limit={state.queue_limit}"
                )
            else:
                bound = f"queue_limit={self.queue_limit}"
            storm = self._storms[scope] = ServiceOverloadedError(
                f"shed by a newer arrival (policy=shed-oldest, {bound})",
                tenant=scope,
            )
        storm.shed_count += 1
        return [(victim, storm)]

    def _expire_due_locked(self, now: float) -> _Dropped:
        """Shed every queued frame whose latency budget has expired.

        Computing a result nobody can use anymore would only steal batch
        seats from frames that can still make their budgets, so expired
        frames are dropped here — at scheduling time, before seats are
        allocated — each failing with its own
        :class:`~repro.errors.DeadlineExceededError` (deadlines are
        per-frame facts, unlike shed storms, which share one overload
        context).  Frames already dispatched are past saving by
        shedding; their remaining budget rides into the pool as the
        batch timeout instead.
        """
        expired = self._unqueue_locked(
            lambda pending: pending.deadline is not None
            and pending.deadline <= now
        )
        self._deadline_shed += len(expired)
        dropped: _Dropped = []
        for pending in expired:
            elapsed_ms = (now - pending.enqueued_at) * 1e3
            budget_ms = (pending.deadline - pending.enqueued_at) * 1e3
            dropped.append((
                pending,
                DeadlineExceededError(
                    f"frame {pending.name!r} waited {elapsed_ms:.1f} ms, "
                    f"past its {budget_ms:.1f} ms budget",
                    tenant=pending.tenant,
                    elapsed_ms=elapsed_ms,
                    deadline_ms=budget_ms,
                ),
            ))
        return dropped

    def _shed_class_locked(
        self, service_class: ServiceClass, reason: str, ladder: bool
    ) -> _Dropped:
        """Drop every queued frame of one class; returns them and their
        error.

        Used when the overload ladder enters ``shed_best_effort``
        (``ladder=True``, counted in ``ladder_shed``) and by
        :meth:`drain` (``ladder=False``).  All victims share one
        deterministic coalesced
        :class:`~repro.errors.ServiceOverloadedError` naming ``reason``.
        """
        victims = self._unqueue_locked(
            lambda pending: pending.service_class is service_class
        )
        self._shed += len(victims)
        if ladder:
            self._ladder_shed += len(victims)
        storm = ServiceOverloadedError(
            f"{service_class.value} frame dropped ({reason})",
            tenant=None,
            shed_count=len(victims),
        )
        for victim in victims:
            self._tenants[victim.tenant].shed += 1
        return [(victim, storm) for victim in victims]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _select_locked(self, shape: tuple, seats: int) -> List[_Pending]:
        """Pop one batch's frames for ``shape``, seats granted by DRR.

        DRR decides how many seats each tenant gets; EDF decides which
        of the tenant's queued frames take them (earliest deadline
        first, class rank then arrival breaking ties).  The batch and
        the frames left behind both keep arrival order — the flush
        scan and the shed scan rely on each queue staying
        arrival-ordered, and fairness decides *membership* of the
        batch, not a reshuffle of frames that all complete together.
        """
        queue = self._queued[shape]
        backlog: Dict[str, List[_Pending]] = {}
        for pending in queue:
            backlog.setdefault(pending.tenant, []).append(pending)
        # Tenant registration order, which DRR's rotation is built from.
        queued = {
            name: len(backlog[name]) for name in self._tenants
            if name in backlog
        }
        weights = {name: self._tenants[name].weight for name in queued}
        grants = self._drr.allocate(queued, weights, seats)
        if seats >= len(queue):
            del self._queued[shape]
            return queue
        chosen = set()
        for name, take in grants.items():
            chosen.update(sorted(backlog[name], key=_edf_key)[:take])
        self._queued[shape] = [p for p in queue if p not in chosen]
        return [p for p in queue if p in chosen]

    def _ready_flushes_locked(
        self, now: float, flush_all: bool
    ) -> List[_Flush]:
        """Assemble every batch that may dispatch right now.

        A shape is ready when it has ``batch_size`` frames queued
        (across tenants), when its oldest frame passed the deadline, or
        when draining at close.  Deadline-expired shapes outrank merely
        full ones (oldest frame first): a tenant flooding one frame
        shape keeps that shape permanently full, and if fullness won,
        other shapes' frames would blow straight through
        ``max_delay_ms`` — cross-shape latency is part of the fairness
        contract, batching efficiency is not.  The dispatch gate caps
        how many batches may be in the service at once — ready frames
        beyond it stay queued where the DRR scheduler keeps them fair.
        """
        batch_size = self.service.batch_size
        flushes: List[_Flush] = []
        while self._dispatched < self.max_inflight_batches:
            full_shape: Optional[tuple] = None
            expired_shape: Optional[tuple] = None
            expired_at: Optional[float] = None
            for shape, queue in self._queued.items():
                oldest = queue[0].enqueued_at
                if flush_all or now - oldest >= self.max_delay:
                    if expired_at is None or oldest < expired_at:
                        expired_at = oldest
                        expired_shape = shape
                elif full_shape is None and len(queue) >= batch_size:
                    full_shape = shape
            chosen = expired_shape if expired_shape is not None else full_shape
            if chosen is None:
                break
            seats = min(batch_size, len(self._queued[chosen]))
            flushes.append(
                _Flush(items=self._select_locked(chosen, seats), shape=chosen)
            )
            self._dispatched += 1
        if flushes:
            # A dispatch boundary ends every current shed storm: the
            # next storms get fresh coalesced error contexts.
            self._storms.clear()
        return flushes

    def _nearest_deadline_locked(self) -> Optional[float]:
        """Next instant the scheduler must wake: coalescing deadlines
        plus any queued frame's latency budget (so expiry sheds happen
        on time, not at the next unrelated arrival)."""
        deadlines = [
            queue[0].enqueued_at + self.max_delay
            for queue in self._queued.values()
        ]
        deadlines.extend(
            pending.deadline
            for queue in self._queued.values()
            for pending in queue
            if pending.deadline is not None
        )
        return min(deadlines, default=None)

    def _coalesce_loop(self) -> None:
        """Background thread: waits for ready batches or expired deadlines."""
        while True:
            with self._lock:
                while True:
                    now = self._clock.now()
                    expired = self._expire_due_locked(now)
                    batches = self._ready_flushes_locked(
                        now, flush_all=self._closed
                    )
                    if batches or expired:
                        break
                    if self._closed and not self._queued:
                        return
                    if self._dispatched >= self.max_inflight_batches:
                        # Gate saturated: no deadline can make a batch
                        # dispatchable, so an expired-deadline timeout
                        # would just busy-spin this loop at 100% CPU.
                        # Sleep untimed — _complete frees a gate slot
                        # and notifies.
                        timeout = None
                    else:
                        deadline = self._nearest_deadline_locked()
                        timeout = (
                            None
                            if deadline is None
                            else max(0.0, deadline - self._clock.now())
                        )
                    self._arrived.wait(timeout=timeout)
            self._settle(expired)
            for batch in batches:
                self._dispatch(batch)

    def _dispatch(self, flush: _Flush) -> None:
        """Hand one coalesced batch to the service; fan results back out.

        This is where each frame gets its one producer write — straight
        into a pooled arena input stack, slot order equal to item order
        — and the service takes ownership of the lease.  If admission
        itself fails, the lease is released here so an overloaded
        shutdown cannot strand a slab.
        """
        names = [pending.name for pending in flush.items]
        # The batch inherits the tightest remaining frame budget as its
        # execution timeout: each pool attempt then kills a hung worker
        # at exactly the latency promise the frames carry.
        deadlines = [
            pending.deadline
            for pending in flush.items
            if pending.deadline is not None
        ]
        timeout = None
        if deadlines:
            # Floor at 1 ms: a frame that expired between scheduling and
            # dispatch still gets one real attempt — shedding it here
            # would duplicate _expire_due_locked's job with worse odds.
            timeout = max(1e-3, min(deadlines) - self._clock.now())
        try:
            lease = self.service.lease_input(flush.shape)
            try:
                for slot, pending in enumerate(flush.items):
                    lease.array[slot] = pending.image.pixels
                    pending.image = None  # the frame now lives in SHM
                future = self.service.submit_stack(
                    lease,
                    flush.count,
                    names,
                    lease_results=self.lease_results,
                    timeout=timeout,
                )
            except BaseException:
                lease.release()
                raise
        except BaseException as exc:  # pool shut down, etc.
            self._complete(flush, None, exc)
            return
        future.add_done_callback(
            lambda f: self._complete(flush, f.result, f.exception())
        )

    def _complete(self, flush: _Flush, result_fn, exc) -> None:
        outputs = None if exc is not None else result_fn()
        done_at = self._clock.now()
        # Count the batch first so a caller who observes a resolved
        # future also observes its tenant's served/latency counters ...
        with self._lock:
            for pending in flush.items:
                state = self._tenants[pending.tenant]
                if exc is None:
                    state.served += 1
                else:
                    state.failed += 1
                latency_ms = (done_at - pending.enqueued_at) * 1e3
                state.latencies_ms.append(latency_ms)
                self._latencies_ms.append(latency_ms)
        # ... then resolve the futures *before* releasing the queue
        # slots: close() returns once nothing is in flight, and its
        # contract is that every future handed out earlier has resolved
        # by then.
        for index, pending in enumerate(flush.items):
            if exc is not None:
                _resolve(pending.future, exc=exc)
            elif not _resolve(pending.future, outputs[index]):
                if self.lease_results:
                    # Nobody will ever see this frame's handle: release
                    # its reference so the slab can recycle.
                    outputs[index].release()
        with self._lock:
            self._dispatched -= 1
            for pending in flush.items:
                self._tenants[pending.tenant].in_flight -= 1
            self._in_flight -= len(flush.items)
            self._space.notify_all()
            # A freed gate slot may unblock the scheduler.
            self._arrived.notify_all()
            rung_changed, dropped = self._observe_overload_locked()
        self._settle(dropped)
        if rung_changed:
            # Apply the freshest rung outside the lock: concurrent
            # completions may race here, but each applies the rung the
            # controller holds *now*, so the service converges on it.
            self.service.apply_overload_rung(self._overload.rung)

    def _observe_overload_locked(self) -> Tuple[bool, _Dropped]:
        """Feed the ladder one observation; returns whether the rung
        changed and the frames that change dropped.

        Runs at batch-completion cadence.  Entering
        ``shed_best_effort`` from below drops already-queued best-effort
        frames immediately — admission suspension alone would let them
        squat on seats for the rest of the storm.
        """
        if self._overload is None:
            return False, []
        ordered = sorted(self._latencies_ms)
        p95_ms = _percentile(ordered, 0.95) if ordered else None
        rung = self._overload.observe(p95_ms, self._in_flight)
        if rung == self._ladder_rung:
            return False, []
        previous = self._ladder_rung
        self._ladder_rung = rung
        if (
            rung_index(rung) >= _SHED_INDEX
            and rung_index(previous) < _SHED_INDEX
        ):
            return True, self._shed_class_locked(
                ServiceClass.BEST_EFFORT,
                reason=f"overload ladder rung={rung}",
                ladder=True,
            )
        return True, []

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def stats(self) -> ServiceStats:
        """Service throughput counters merged with this ingestor's view.

        ``images``/``pixels``/``seconds``/``batches`` come from the
        backing service; ``queue_depth`` counts this ingestor's in-flight
        images, latency percentiles are end-to-end (submit to result),
        and ``tenants`` carries the per-tenant breakdown the
        ``fairness_index`` is computed over.
        """
        base = self.service.stats
        with self._lock:
            ordered = sorted(self._latencies_ms)
            tenants = tuple(
                TenantStats(
                    tenant=name,
                    weight=state.weight,
                    submitted=state.submitted,
                    served=state.served,
                    rejected=state.rejected,
                    shed=state.shed,
                    failed=state.failed,
                    queue_depth=state.in_flight,
                    queue_peak=state.queue_peak,
                    latency_p50_ms=_percentile(
                        sorted(state.latencies_ms), 0.50
                    ),
                    latency_p95_ms=_percentile(
                        sorted(state.latencies_ms), 0.95
                    ),
                )
                for name, state in sorted(self._tenants.items())
            )
            return replace(
                base,
                queue_depth=self._in_flight,
                queue_peak=self._queue_peak,
                rejected=self._rejected,
                shed=self._shed,
                latency_p50_ms=_percentile(ordered, 0.50),
                latency_p95_ms=_percentile(ordered, 0.95),
                latency_p99_ms=_percentile(ordered, 0.99),
                reliability=replace(
                    base.reliability,
                    deadline_shed=self._deadline_shed,
                    ladder_rung=self._ladder_rung,
                    ladder_transitions=(
                        self._overload.transitions
                        if self._overload is not None
                        else 0
                    ),
                    ladder_shed=self._ladder_shed,
                ),
                tenants=tenants,
            )

    def drain(self) -> None:
        """Zero-loss shutdown: stop admitting, serve the queue, stop.

        The graceful sibling of :meth:`close`: new submissions are
        refused immediately (``ToneMapError``), queued *best-effort*
        frames fail fast with one deterministic
        :class:`~repro.errors.ServiceOverloadedError` (they are the
        load the operator chose to drop to finish faster), and every
        queued interactive/standard frame is flushed to a real result
        before the scheduler thread stops.  The backing service stays
        open — the caller owns it.  Idempotent, and ``close`` after
        ``drain`` is a no-op.
        """
        with self._lock:
            if self._closed:
                return
            self._draining = True
            dropped = self._shed_class_locked(
                ServiceClass.BEST_EFFORT, reason="drain", ladder=False
            )
            self._space.notify_all()  # wake blocked submitters to fail
        self._settle(dropped)
        self.close()

    def close(self) -> None:
        """Flush queued work, wait for in-flight futures, stop the scheduler.

        Every future handed out before ``close`` resolves (blocked
        submitters instead get :class:`~repro.errors.ToneMapError`).  The
        backing service stays open — the caller owns it.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._arrived.notify_all()
            self._space.notify_all()
        self._coalescer.join()
        with self._lock:
            while self._in_flight > 0:
                self._space.wait()

    def __enter__(self) -> "ToneMapIngestor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
