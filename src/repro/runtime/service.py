"""A pooled tone-mapping service over one execution backend.

:class:`ToneMapService` is the serving layer the ROADMAP's north star asks
for: callers hand it images (any mix of shapes), it groups them by shape,
chops each group into batches, runs the batches on a thread pool, and
keeps aggregate throughput statistics.  Heavy NumPy stages release the
GIL, so the pool overlaps real work; with ``shards=N`` the batches are
additionally partitioned across worker **processes**
(:class:`~repro.runtime.shard.ShardPool`), which frees the fixed-point
model's Python-level glue from the GIL entirely.

A batch enters one of two ways: :meth:`ToneMapService.map_many` for
images, or :meth:`~ToneMapService.lease_input` +
:meth:`~ToneMapService.submit_stack` for a stack the producer wrote
into the arena itself.  Either way its frames sit in the backend's
shared-memory arena and the stack runs through one
:class:`~repro.runtime.backend.Backend` — a shard pool, a host pool, or
in process a :class:`~repro.runtime.backend.LocalBackend` over the
service's own mapper, which is also a pooled service's brownout target.

Per-kernel state — the Gaussian coefficient array and, for fixed-point
blur functions, the quantized coefficient ROM — is cached: the kernel is
built once per parameter set (coefficients are precomputed on the frozen
:class:`~repro.tonemap.gaussian.GaussianKernel`), and
``FixedBlurConfig.quantized_coefficients`` memoizes per (config, kernel).
Sharded pools warm both caches per worker process at start-up.

Every mapper the service builds — in-process, per shard worker, per
host — comes from the same two inputs: ``params`` say what is computed
(fixed point is ``params.blur_fn``), the
:class:`~repro.planner.plan.ExecutionPlan` says how it runs.

The service executes work as fast as it arrives; admission control
(bounded queueing, deadline coalescing, the async API) is layered on top
by :class:`~repro.runtime.ingest.ToneMapIngestor`.  The data path and the
backpressure policies are documented in ``docs/architecture.md``; the
throughput benchmarks that track this module are described in
``docs/benchmarks.md``.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import (
    ImageError,
    ShardCrashError,
    ShardTimeoutError,
    ToneMapError,
)
from repro.image.hdr import HDRImage
from repro.runtime.arena import ArenaLease, ResultHandle
from repro.runtime.backend import LocalBackend
from repro.runtime.batch import BatchToneMapper
from repro.runtime.clock import MONOTONIC, Clock
from repro.runtime.faults import resolve_injector
from repro.runtime.overload import LADDER_BROWNOUT, rung_index
from repro.runtime.reliability import (
    BREAKER_DISABLED,
    BreakerPolicy,
    CircuitBreaker,
    ReliabilityStats,
)
from repro.runtime.shard import ShardPool
from repro.tonemap.pipeline import ToneMapParams

#: How many recent completion latencies feed the percentile stats.
LATENCY_WINDOW = 1024


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(fraction * len(sorted_values) + 0.5) - 1))
    return sorted_values[rank]


@dataclass(frozen=True)
class TenantStats:
    """Per-tenant counters of a multi-tenant ingestor.

    Attributes
    ----------
    tenant:
        The tenant identity frames were submitted under.
    weight:
        The tenant's deficit-round-robin scheduling weight.
    submitted / served / rejected / shed / failed:
        Admission outcomes: frames submitted, frames tone-mapped to
        completion, frames refused at admission (``reject`` policy),
        frames dropped to admit newer arrivals (``shed-oldest``),
        frames whose batch failed (their futures hold the error).
    queue_depth / queue_peak:
        This tenant's frames currently in flight (admitted, unfinished)
        and the high-water mark.
    latency_p50_ms / latency_p95_ms:
        Submit-to-result percentiles over this tenant's recent frames —
        the per-tenant p95 is what the fairness benchmark compares
        against a solo run.
    """

    tenant: str
    weight: float = 1.0
    submitted: int = 0
    served: int = 0
    rejected: int = 0
    shed: int = 0
    failed: int = 0
    queue_depth: int = 0
    queue_peak: int = 0
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0


@dataclass(frozen=True)
class ServiceStats:
    """Aggregate counters of a runtime instance.

    Attributes
    ----------
    images:
        Images tone-mapped so far.
    pixels:
        Pixels tone-mapped so far (``H * W`` per image).
    seconds:
        Total wall-clock seconds spent inside batch runs (summed across
        workers, so it can exceed elapsed time under concurrency).
    batches:
        Batch runs completed so far.
    queue_depth:
        Work currently admitted but not finished — batches for a bare
        :class:`ToneMapService`, images for a
        :class:`~repro.runtime.ingest.ToneMapIngestor`.
    queue_peak:
        High-water mark of ``queue_depth``.
    rejected:
        Submissions refused with
        :class:`~repro.errors.ServiceOverloadedError` (``reject`` policy).
    shed:
        Queued submissions dropped to admit newer arrivals
        (``shed-oldest`` policy).
    latency_p50_ms / latency_p95_ms / latency_p99_ms:
        Percentiles over a sliding window of recent completion latencies
        (:data:`LATENCY_WINDOW` samples): batch execution time for the
        bare service, per-image submit-to-result time for the ingestor.
    shards_active:
        Workers every batch fans out across: the pool's shards, or a
        host pool's live hosts (0 in process).
    shard_respawns:
        Worker-set rebuilds performed after worker crashes (0 in
        health; see :meth:`~repro.runtime.shard.ShardPool.run_leased`).
    reliability:
        Reliability-layer counters
        (:class:`~repro.runtime.reliability.ReliabilityStats`): deadline
        sheds, budget kills, hedged replays, breaker state and
        brownout batches.  All zeros / ``disabled`` for a service built
        without deadlines or a breaker.
    tenants:
        Per-tenant :class:`TenantStats`, filled in by a multi-tenant
        :class:`~repro.runtime.ingest.ToneMapIngestor` (empty for the
        bare service, which is tenant-blind by design).
    """

    images: int = 0
    pixels: int = 0
    seconds: float = 0.0
    batches: int = 0
    queue_depth: int = 0
    queue_peak: int = 0
    rejected: int = 0
    shed: int = 0
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    latency_p99_ms: float = 0.0
    shards_active: int = 0
    shard_respawns: int = 0
    reliability: ReliabilityStats = ReliabilityStats()
    tenants: tuple[TenantStats, ...] = ()

    @property
    def pixels_per_sec(self) -> float:
        """Aggregate throughput; 0 before any work completes."""
        if self.seconds <= 0.0:
            return 0.0
        return self.pixels / self.seconds

    @property
    def fairness_index(self) -> float:
        """Jain's fairness index over per-tenant weighted service rates.

        Computed over ``served / weight`` for every tenant that has
        submitted work: 1.0 means every tenant received service exactly
        proportional to its weight, ``1/n`` means one tenant of *n*
        monopolized the pool.  1.0 (vacuously fair) when fewer than two
        tenants have submitted.
        """
        rates = [
            t.served / t.weight for t in self.tenants if t.submitted > 0
        ]
        if len(rates) < 2 or sum(rates) == 0.0:
            return 1.0
        return sum(rates) ** 2 / (len(rates) * sum(r * r for r in rates))


class ToneMapService:
    """Batched, pooled tone mapping with per-kernel caches.

    Parameters
    ----------
    params:
        Pipeline parameters applied to every image.  With ``shards`` or
        ``hosts`` they are pickled to the workers, so a ``blur_fn`` must
        pickle — :func:`~repro.tonemap.fixed_blur.make_fixed_blur_fn`
        does.  Outputs of a ``blur_fn`` not marked ``trusted_finite``
        are checked (finite, non-negative) before they are handed out,
        on every backend.
    max_workers:
        Thread-pool width (``None`` = executor default).
    batch_size:
        Maximum images per batched run; larger batches amortize array
        passes better, smaller ones spread across more workers.
    shards:
        When given, each batch is partitioned across this many worker
        processes via :class:`~repro.runtime.shard.ShardPool` (outputs are
        bit-identical to the in-process path).
    hosts:
        Route batches across shard *hosts* over the network instead of
        local worker processes: an ``int`` spawns that many localhost
        host-server processes (each a
        :class:`~repro.runtime.shard.ShardPool`-backed
        :class:`~repro.runtime.hostpool.HostServer`), a sequence of
        ``"host:port"`` addresses connects to externally started
        servers (CLI ``serve-host``), and a ready
        :class:`~repro.runtime.hostpool.HostPool` is adopted as-is
        (the service closes it).  Mutually exclusive with ``shards``;
        the breaker and ``shard_timeout_ms`` apply to hosts exactly as
        they do to shards.
    arena_slots:
        Depth of the backend's shared-memory arena per size class (see
        :class:`~repro.runtime.arena.ShmArena`); the in-process
        backend's is at least the thread-pool width.
    plan:
        An :class:`~repro.planner.plan.ExecutionPlan` describing the
        expected traffic: supplies the engine choice, thread count, band
        budget, blur method and calibration profile to the in-process
        mapper and (pickled) to every shard worker, so the whole service
        replays one recorded set of dispatch decisions.  Shard workers
        run a fused plan on one thread each.  ``None`` runs the staged
        reference engine everywhere.
    shard_timeout_ms:
        Default execution budget per sharded batch; an attempt still
        running at the budget kills its workers and the batch is
        hedge-replayed (see :class:`~repro.runtime.shard.ShardPool`).
        Requires ``shards``.
    breaker:
        Circuit-breaker brownout: after repeated shard failures the
        service stops offering batches to the pool and runs them on its
        local backend (bit-identical outputs, honestly slower),
        probing the pool again after a cooldown.  Pass ``True`` for the
        default :class:`~repro.runtime.reliability.BreakerPolicy`, a
        policy to tune it, or a ready
        :class:`~repro.runtime.reliability.CircuitBreaker` (tests share
        one with a fake clock).  Requires ``shards``; without a breaker
        shard failures keep raising, exactly as before.
    faults:
        Chaos injection plan shared by the pool and the local backend
        (see :mod:`repro.runtime.faults`).  ``None`` consults the
        ``REPRO_FAULT_PLAN`` environment variable.
    clock:
        Injectable monotonic time source for the breaker and the
        pool's attempt budgets.

    Use as a context manager or call :meth:`close` when done.
    """

    def __init__(
        self,
        params: Optional[ToneMapParams] = None,
        max_workers: Optional[int] = None,
        batch_size: int = 8,
        shards: Optional[int] = None,
        arena_slots: int = 4,
        plan=None,
        shard_timeout_ms: Optional[float] = None,
        breaker=None,
        faults=None,
        hosts=None,
        clock: Clock = MONOTONIC,
    ):
        params = params if params is not None else ToneMapParams()
        if batch_size < 1:
            raise ToneMapError(f"batch_size must be >= 1, got {batch_size}")
        if hosts is not None and shards is not None:
            raise ToneMapError(
                "hosts and shards are mutually exclusive — a hosted "
                "service fans out across shard hosts, each of which runs "
                "its own worker pool"
            )
        if shards is None and hosts is None and (
            shard_timeout_ms is not None or breaker is not None
        ):
            raise ToneMapError(
                "shard_timeout_ms and breaker require a sharded or hosted "
                "service (construct with shards=N or hosts=...) — the "
                "in-process path has no workers to watch or brown out from"
            )
        self.params = params
        self.batch_size = batch_size
        self.shards = shards
        self.plan = plan
        self._clock = clock
        self._faults = resolve_injector(faults)
        if breaker is None or isinstance(breaker, CircuitBreaker):
            self._breaker: Optional[CircuitBreaker] = breaker
        elif breaker is True:
            self._breaker = CircuitBreaker(BreakerPolicy(), clock=clock)
        elif isinstance(breaker, BreakerPolicy):
            self._breaker = CircuitBreaker(breaker, clock=clock)
        else:
            raise ToneMapError(
                "breaker must be True, a BreakerPolicy or a CircuitBreaker, "
                f"got {type(breaker)!r}"
            )
        self._brownout_batches = 0
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="tonemap"
        )
        pooled = dict(
            arena_slots=arena_slots,
            default_timeout_ms=shard_timeout_ms,
            faults=self._faults,
            clock=clock,
        )
        pool = None
        if shards is not None:
            pool = ShardPool(params, shards=shards, plan=plan, **pooled)
        elif hosts is not None:
            # Imported here so the single-host stack never pays for the
            # networking module.
            from repro.runtime.hostpool import HostPool

            if isinstance(hosts, HostPool):
                pool = hosts
            elif isinstance(hosts, int):
                pool = HostPool.spawn_local(hosts, params, plan=plan, **pooled)
            else:
                pool = HostPool(hosts, **pooled)
        # The in-process transport: the whole service without a pool,
        # the brownout target of a pooled one.  Built after the pool has
        # forked its workers, and its arena and threads start lazily, so
        # a pooled service pays nothing for it.  Each running batch holds
        # one input stack and one output slab, so a ring as deep as the
        # thread pool never overflows into per-batch transient segments.
        self._local = LocalBackend(
            BatchToneMapper(params, plan=plan),
            arena_slots=max(arena_slots, self.workers),
            faults=self._faults,
            clock=clock,
        )
        self._pool = self._local if pool is None else pool
        self._forced_brownout = False
        self._draining = False
        self._closed = False
        self._lock = threading.Lock()
        # The counters behind ``stats``; the snapshot is built on read.
        self._counts = dict(
            images=0, pixels=0, seconds=0.0, batches=0, queue_depth=0,
            queue_peak=0,
        )
        self._latencies_ms: deque = deque(maxlen=LATENCY_WINDOW)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _submit(self, run, *args) -> Future:
        """Admit one batch and queue ``run(*args)`` on the thread pool.

        The batch counts toward ``queue_depth`` from this moment — queued
        behind the thread pool is still "admitted but not finished" —
        and ``run`` owns it from then on.
        """
        with self._lock:
            if self._draining or self._closed:
                raise ToneMapError(
                    "service is draining" if self._draining
                    else "service is closed"
                )
            counts = self._counts
            counts["queue_depth"] += 1
            counts["queue_peak"] = max(
                counts["queue_peak"], counts["queue_depth"]
            )
        try:
            return self._executor.submit(run, *args)
        except BaseException:
            # Executor shut down mid-submit: the batch never entered the
            # pool, so it must not haunt queue_depth forever.
            self._abort_batch()
            raise

    def _abort_batch(self) -> None:
        """Undo :meth:`_submit`'s admission for a batch that failed."""
        with self._lock:
            self._counts["queue_depth"] -= 1

    def _finish_batch(self, start: float, images: int, pixels: int) -> None:
        """Record one completed batch.

        ``start`` was read from ``self._clock`` — all service timing
        goes through the injected clock, so a ``FakeClock`` drives the
        latency window deterministically and deadline math never mixes
        epochs with the stats.
        """
        elapsed = self._clock.now() - start
        with self._lock:
            self._latencies_ms.append(elapsed * 1e3)
            counts = self._counts
            counts["images"] += images
            counts["pixels"] += pixels
            counts["seconds"] += elapsed
            counts["batches"] += 1
            counts["queue_depth"] -= 1

    # ------------------------------------------------------------------
    # Overload ladder hooks
    # ------------------------------------------------------------------
    def apply_overload_rung(self, rung: str) -> None:
        """Adopt one degradation-ladder rung (idempotent, any order).

        Only ``brownout`` changes execution: it stops offering batches
        to the shard/host pool — the breaker's brownout path, entered
        deliberately, still serving bit-identical outputs from the
        local backend (in process, where that backend is the only one,
        nothing changes).  ``shed_best_effort`` acts at admission, in
        the ingestor.  Called by the ingestor's
        :class:`~repro.runtime.overload.OverloadController` wiring;
        harmless to call directly.
        """
        forced = rung_index(rung) >= rung_index(LADDER_BROWNOUT)
        with self._lock:
            self._forced_brownout = forced

    def _execute_stack(
        self,
        in_lease: ArenaLease,
        count: int,
        timeout: Optional[float] = None,
    ) -> ArenaLease:
        """Route one arena stack: the service's backend, unless the
        breaker (or the overload ladder's brownout rung) says no.

        With a breaker configured, pool failures that exhausted the
        pool's own replay and hedge (:class:`~repro.errors.ShardCrashError`,
        :class:`~repro.errors.ShardTimeoutError`) are recorded and the
        batch browns out to the local backend — the same stack code the
        workers run, so bit-identical outputs: the caller sees latency,
        not an exception.  Without a breaker those errors propagate.
        Bad outputs of an untrusted ``blur_fn`` raise
        :class:`~repro.errors.ImageError` from the mapper that ran it;
        the backend has released their slab by then.
        """
        with self._lock:
            forced = self._forced_brownout
        breaker = self._breaker
        out_lease = None
        if not forced and (breaker is None or breaker.allow_shard()):
            try:
                out_lease = self._pool.run_leased(
                    in_lease, count, timeout=timeout
                )
            except (ShardCrashError, ShardTimeoutError):
                if breaker is None:
                    raise
                breaker.record_failure()
            except ImageError:
                # The pool served the batch; the blur_fn's pixels are bad.
                if breaker is not None:
                    breaker.record_success()
                raise
            else:
                if breaker is not None:
                    breaker.record_success()
        if out_lease is None:
            if self._local is not self._pool:  # in process: no brownout
                with self._lock:
                    self._brownout_batches += 1
            out_lease = self._local.run_leased(in_lease, count)
        return out_lease

    def _run_leased_admitted(
        self,
        in_lease: ArenaLease,
        count: int,
        names: Sequence[str],
        lease_results: bool = False,
        timeout: Optional[float] = None,
    ) -> tuple:
        """Execute one arena-resident batch: every batch's one path.

        Owns ``in_lease`` — released on every exit path.  By default the
        outputs are materialized once (the futures safety fallback: an
        arbitrary future consumer cannot be trusted to release a lease
        promptly) and fanned out as adopted, copy-free views of that one
        buffer.  With ``lease_results`` the copy disappears entirely:
        each output is a :class:`~repro.runtime.arena.ResultHandle`
        holding its own reference on the batch's output slab — the
        caller opted into the release contract, so the slab goes back to
        the ring when the last frame's handle is released.

        ``timeout`` (seconds) is the batch's remaining execution budget,
        forwarded to the pool as each attempt's budget.
        """
        start = self._clock.now()
        try:
            try:
                out_lease = self._execute_stack(in_lease, count, timeout)
            finally:
                in_lease.release()
            height = int(out_lease.array.shape[1])
            width = int(out_lease.array.shape[2])
            if lease_results:
                outputs = tuple(
                    ResultHandle(
                        out_lease, slot=i, name=f"{names[i]}:tonemapped"
                    )
                    for i in range(count)
                )
                # Drop the batch's own reference: the slab now lives
                # exactly as long as the longest-held frame handle.
                out_lease.release()
            else:
                out = out_lease.materialize()
                outputs = tuple(
                    HDRImage.adopt(out[i], name=f"{names[i]}:tonemapped")
                    for i in range(count)
                )
            pixels = count * height * width
        except BaseException:
            self._abort_batch()
            raise
        self._finish_batch(start, count, pixels)
        return outputs

    def submit_stack(
        self,
        in_lease: ArenaLease,
        count: int,
        names: Sequence[str],
        lease_results: bool = False,
        timeout: Optional[float] = None,
    ) -> "Future[tuple]":
        """Queue an arena-resident stack: zero-copy batch admission.

        ``in_lease`` must view a stack whose first ``count`` frames were
        written by the producer (the ingestor fills slots at dispatch
        time); ``names`` labels each frame slot.  The service takes
        ownership of the lease once this returns.

        The future resolves to a tuple of :class:`HDRImage` (default:
        one materialize copy per batch, unbounded lifetime) or, with
        ``lease_results``, of zero-copy
        :class:`~repro.runtime.arena.ResultHandle` views the caller must
        release (see the lease lifecycle table in
        ``docs/architecture.md``).
        """
        return self._submit(
            self._run_leased_admitted,
            in_lease,
            count,
            list(names),
            lease_results,
            timeout,
        )

    def lease_input(self, frame_shape: tuple) -> ArenaLease:
        """Lease an arena input stack sized for one coalesced batch.

        Producers write frames into ``lease.array[slot]`` and hand the
        lease to :meth:`submit_stack`.
        """
        return self._pool.lease_input(
            (self.batch_size,) + tuple(frame_shape), np.float32
        )

    def map_many(self, images: Sequence[HDRImage]) -> list[HDRImage]:
        """Tone-map many images, preserving input order.

        Images are grouped by shape (a batch must be rectangular), each
        group is chopped into ``batch_size`` chunks, and the chunks run
        concurrently on the pool.  A chunk is staged into the arena
        inside its own pooled task, so at most ``workers`` chunks hold
        arena stacks at once.
        """
        images = list(images)
        groups: dict[tuple, list[int]] = {}
        for index, image in enumerate(images):
            if not isinstance(image, HDRImage):
                raise ToneMapError(f"expected HDRImage, got {type(image)!r}")
            groups.setdefault(image.pixels.shape, []).append(index)

        futures: list[tuple[list[int], Future]] = []
        for indices in groups.values():
            for lo in range(0, len(indices), self.batch_size):
                chunk = indices[lo : lo + self.batch_size]
                future = self._submit(
                    self._stage_and_run, [images[i] for i in chunk]
                )
                futures.append((chunk, future))

        outputs: list[Optional[HDRImage]] = [None] * len(images)
        for chunk, future in futures:
            for position, output in zip(chunk, future.result()):
                outputs[position] = output
        return outputs  # type: ignore[return-value]

    def _stage_and_run(self, images: list[HDRImage]) -> tuple[HDRImage, ...]:
        """Run one admitted same-shape chunk: copy each frame once,
        straight into its slot of a leased arena stack (counted as
        copy-in), then run the stack."""
        try:
            in_lease = self._pool.lease_input(
                (len(images),) + images[0].pixels.shape
            )
            for slot, image in enumerate(images):
                in_lease.array[slot] = image.pixels
        except BaseException:
            self._abort_batch()
            raise
        self._pool.arena._count_copy_in(in_lease.nbytes)
        return self._run_leased_admitted(
            in_lease, len(images), [image.name for image in images]
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def pool(self):
        """The backend running this service's batches: its shard pool,
        host pool, or in process its
        :class:`~repro.runtime.backend.LocalBackend`."""
        return self._pool

    @property
    def breaker(self) -> Optional[CircuitBreaker]:
        """The circuit breaker guarding the pool (``None`` when disabled)."""
        return self._breaker

    @property
    def workers(self) -> int:
        """Width of the batch thread pool (the ingestor's dispatch gate
        defaults to this, so it can keep every pool thread busy)."""
        return self._executor._max_workers

    @property
    def stats(self) -> ServiceStats:
        """A snapshot of the aggregate counters (latency = batch run time)."""
        pool, breaker = self._pool, self._breaker
        with self._lock:
            ordered = sorted(self._latencies_ms)
            brownouts = self._brownout_batches
            counts = dict(self._counts)
        return ServiceStats(
            **counts,
            latency_p50_ms=_percentile(ordered, 0.50),
            latency_p95_ms=_percentile(ordered, 0.95),
            latency_p99_ms=_percentile(ordered, 0.99),
            shards_active=pool.active_shards,
            shard_respawns=pool.worker_respawns,
            reliability=ReliabilityStats(
                hedged_replays=pool.hedged_replays,
                watchdog_kills=pool.watchdog_kills,
                hosts_lost=pool.hosts_lost,
                breaker_state=breaker.state if breaker else BREAKER_DISABLED,
                breaker_transitions=breaker.transitions if breaker else 0,
                brownout_batches=brownouts,
            ),
        )

    def drain(self) -> None:
        """Graceful shutdown: stop admitting, finish everything, close.

        New submissions are refused with :class:`ToneMapError` from the
        moment this is called; every batch already admitted runs to a
        real result (the executor flushes its queue, then the backend is
        drained — :meth:`~repro.runtime.backend.Backend.drain` completes
        in-flight leases before tearing workers down).  Idempotent, and
        a later :meth:`close` is a no-op.
        """
        with self._lock:
            if self._closed:
                return
            self._draining = True
        self._shutdown(graceful=True)

    def close(self) -> None:
        """Shut the pools down, waiting for queued work."""
        with self._lock:
            if self._closed:
                return
            self._draining = True
        self._shutdown(graceful=False)

    def _shutdown(self, graceful: bool) -> None:
        self._executor.shutdown(wait=True)
        (self._pool.drain if graceful else self._pool.close)()
        # In process this closes the same backend again (harmless).
        self._local.close()
        with self._lock:
            self._closed = True

    def __enter__(self) -> "ToneMapService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
