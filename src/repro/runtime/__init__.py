"""Batched / concurrent / sharded tone-mapping runtime.

The paper accelerates one image at a time; a production deployment serves
continuous streams.  This package adds the software side of that story as
four composable stages (diagrammed in ``docs/architecture.md``):

* :class:`~repro.runtime.batch.BatchToneMapper` — stacks N same-shape
  images into one ``(N, H, W)`` volume and runs all four pipeline stages
  as whole-batch array operations, amortizing every pass (the blur FFTs,
  and the batched fixed-point folded passes) across the batch.
* :mod:`repro.runtime.fused` — the fused band engine
  (:class:`~repro.runtime.fused.FusedToneMapPlan` +
  :class:`~repro.runtime.fused.FusedExecutor`): the software analogue of
  the paper's ``DATAFLOW`` pragma.  All four stages run in one pass over
  cache-sized row bands (vertical blur halos come from a reusable
  line-buffer ring, the paper's sigma 16 included; kernels past the
  fused crossover, 193 taps by default, read their mask rows from a
  pooled whole-plane FFT blur instead), partitioned across a persistent
  thread pool, with zero stage temporaries after warm-up
  (:class:`~repro.runtime.fused.FusedStats` proves it).  An
  :class:`~repro.planner.plan.ExecutionPlan` selects it: pass
  ``plan=`` to the mapper, pool, host or service — every float plan
  is fused, and no plan means the staged reference engine.
* :class:`~repro.runtime.arena.ShmArena` — the persistent shared-memory
  data plane: pooled, size-classed input stacks plus a ring of output
  slabs, reused across batches and handed out as reference-counted
  zero-copy :class:`~repro.runtime.arena.ArenaLease` views (with a
  ``materialize()`` copy fallback for consumers that outlive the ring).
* :class:`~repro.runtime.shard.ShardPool` — partitions a batch across
  worker processes over the arena's stacks, freeing the fixed-point
  model's Python-level glue from the GIL; workers cache their segment
  attachments and per-worker kernel / coefficient-ROM caches are warmed
  at pool start-up.  Fixed point reaches the workers as
  ``params.blur_fn`` (the picklable
  :func:`~repro.tonemap.fixed_blur.make_fixed_blur_fn` object).  Every
  batch fans out across all of its warm workers, one slab each.  It and
  the multi-host ``HostPool`` below are two transports of one
  :class:`~repro.runtime.backend.Backend`: one data-plane surface
  (:class:`~repro.runtime.backend.DataPlaneStats`) and one attempt
  policy (one crash replay, one hedge per batch).  The third transport,
  :class:`~repro.runtime.backend.LocalBackend`, runs the batch mapper
  in process over the same arena stacks.
* :class:`~repro.runtime.service.ToneMapService` — a thread-pool front
  end that groups incoming images by shape, stages every batch in its
  backend's arena and runs it through that one backend (local,
  sharded or hosted), and reports aggregate throughput as
  :class:`~repro.runtime.service.ServiceStats`.
* :class:`~repro.runtime.ingest.ToneMapIngestor` — the streaming edge:
  continuous single-image arrivals (blocking or ``asyncio``) carrying a
  ``tenant`` identity, admitted under per-tenant bounds
  (:class:`~repro.runtime.ingest.TenantConfig`: weight, queue limit,
  ``block`` / ``reject`` / ``shed-oldest``
  :class:`~repro.runtime.ingest.BackpressurePolicy`), parked in one
  arrival-ordered queue per frame shape, coalesced into
  same-shape batches across tenants by a
  :class:`~repro.runtime.ingest.DeficitRoundRobin` scheduler under a
  latency deadline and a dispatch gate — no tenant can monopolize the
  pool, reported per tenant via
  :class:`~repro.runtime.service.TenantStats` and Jain's
  ``fairness_index``.  Frames are written once, straight into the
  backend's arena at dispatch; with ``lease_results=True`` futures
  resolve to zero-copy :class:`~repro.runtime.arena.ResultHandle` views
  instead of materialized copies, in process or pooled.

On top of the data plane sits the **reliability layer** (PR 8): frames
carry end-to-end latency budgets (``submit(..., deadline_ms=...)`` —
expired frames shed with
:class:`~repro.errors.DeadlineExceededError`, the remaining budget
rides into the pool as the batch timeout), a shard attempt SIGKILLs
its hung workers when its budget runs out and the batch is
hedge-replayed (:class:`~repro.errors.ShardTimeoutError` past the
hedge), and a :class:`~repro.runtime.reliability.CircuitBreaker`
browns persistent shard failure out to the service's local backend
(bit-identical outputs, honestly slower).  All of it is observable as
:class:`~repro.runtime.reliability.ReliabilityStats` on
``ServiceStats`` and chaos-testable via seedable
:class:`~repro.runtime.faults.FaultPlan` injection
(``REPRO_FAULT_PLAN`` / CLI ``--fault-plan``), with time injectable
everywhere through :mod:`repro.runtime.clock`.

The **multi-host tier** (PR 9) scales the same stack across machines:
:class:`~repro.runtime.hostpool.HostServer` serves the ``ShardPool`` it
is handed over the length-prefixed zero-copy wire protocol in
:mod:`repro.runtime.net` (scatter-gather ``sendmsg`` / ``recv_into``
straight between arena slots and the socket, every staging byte
counted in :class:`~repro.runtime.net.NetStats`), and
:class:`~repro.runtime.hostpool.HostPool` routes batches across N such
hosts with the reliability machinery generalized one level up — each
host ``live``, ``lost`` (one revive thread respawns or reconnects it)
or ``draining`` (rolling restart), replay-on-another-host, hedged
timeouts, and breaker brownout when every host is gone
(:class:`~repro.errors.HostUnavailableError`).  ``ToneMapService(
hosts=2)`` spawns a local fleet; ``repro-experiments serve-host``
runs one serving host; chaos plans gain ``partition`` / ``slow-link``
/ ``host-loss`` kinds.

**Overload-graceful serving** (PR 10) keeps the stack honest when
demand exceeds capacity: ``submit(..., priority=...)`` classes frames
as :class:`~repro.runtime.ingest.ServiceClass` (interactive /
standard / best_effort) with earliest-deadline-first ordering inside
each tenant queue and class-aware shedding (best-effort goes first,
interactive never before its deadline); an
:class:`~repro.runtime.overload.OverloadController` watches p95 and
queue depth against a declared
:class:`~repro.runtime.overload.ServiceLevelObjective` and walks the
three-rung degradation ladder (full → shed best-effort → brownout,
hysteresis both ways), surfaced in ``ReliabilityStats``;
and ``drain()`` on every layer plus
:meth:`~repro.runtime.hostpool.HostPool.rolling_restart` give a
zero-loss graceful shutdown and host-at-a-time restart path
(chaos-gated by ``bench_runtime.py::test_rolling_restart_small``).

Wired into the CLI as ``repro-experiments batch`` (``--shards``,
``--max-delay-ms``, ``--queue-limit``, ``--policy``,
``--tenant-weights``, ``--per-tenant-queue-limit``,
``--lease-results``, ``--deadline-ms``, ``--shard-timeout-ms``,
``--breaker``, ``--fault-plan``) and demonstrated by
``examples/batch_throughput.py``.  Throughput and the fairness /
zero-copy / chaos-recovery gates are tracked over time by
``benchmarks/bench_runtime.py`` — see ``docs/benchmarks.md`` for how to
run and read it.
"""

from repro.errors import (
    DeadlineExceededError,
    HostUnavailableError,
    ServiceOverloadedError,
    ShardCrashError,
    ShardTimeoutError,
    WireProtocolError,
)
from repro.runtime.arena import ArenaLease, ArenaStats, ResultHandle, ShmArena
from repro.runtime.backend import DataPlaneStats, LocalBackend
from repro.runtime.batch import BatchToneMapper, BatchToneMapResult
from repro.runtime.clock import Clock, FakeClock, MonotonicClock
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.fused import (
    FusedExecutor,
    FusedStats,
    FusedToneMapPlan,
)
from repro.runtime.hostpool import HostPool, HostServer
from repro.runtime.net import NetStats
from repro.runtime.ingest import (
    BackpressurePolicy,
    DeficitRoundRobin,
    ServiceClass,
    TenantConfig,
    ToneMapIngestor,
)
from repro.runtime.overload import (
    LADDER,
    OverloadController,
    OverloadPolicy,
    ServiceLevelObjective,
)
from repro.runtime.reliability import (
    BreakerPolicy,
    CircuitBreaker,
    ReliabilityStats,
)
from repro.runtime.service import ServiceStats, TenantStats, ToneMapService
from repro.runtime.shard import ShardPool

__all__ = [
    "ArenaLease",
    "ArenaStats",
    "BackpressurePolicy",
    "BatchToneMapper",
    "BatchToneMapResult",
    "BreakerPolicy",
    "CircuitBreaker",
    "Clock",
    "DataPlaneStats",
    "DeadlineExceededError",
    "DeficitRoundRobin",
    "FakeClock",
    "FaultInjector",
    "FaultPlan",
    "FusedExecutor",
    "FusedStats",
    "FusedToneMapPlan",
    "HostPool",
    "HostServer",
    "HostUnavailableError",
    "LADDER",
    "LocalBackend",
    "MonotonicClock",
    "NetStats",
    "OverloadController",
    "OverloadPolicy",
    "ReliabilityStats",
    "ResultHandle",
    "ServiceClass",
    "ServiceLevelObjective",
    "ServiceOverloadedError",
    "ServiceStats",
    "ShardCrashError",
    "ShardPool",
    "ShardTimeoutError",
    "ShmArena",
    "TenantConfig",
    "TenantStats",
    "ToneMapIngestor",
    "ToneMapService",
    "WireProtocolError",
]
