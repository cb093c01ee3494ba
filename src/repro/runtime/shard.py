"""Process-pool sharding backend over a persistent shared-memory arena.

The thread-pooled :class:`~repro.runtime.service.ToneMapService` overlaps
the NumPy stages (which release the GIL), but the fixed-point model still
carries Python-level glue — the tap loop, quantization bookkeeping — that
serializes on the GIL.  :class:`ShardPool` escapes it: a batch's
``(N, H, W[, 3])`` pixel stack lives in a POSIX shared-memory segment,
the N images are partitioned into contiguous slabs, and each slab is
tone-mapped by a separate **worker process** that writes its results
straight back into a shared output slab.  Only segment names and slab
bounds cross the process boundary — never pixel data.

Unlike the PR 2 incarnation, segments are *persistent*: the pool owns a
:class:`~repro.runtime.arena.ShmArena` whose pooled input stacks and
output-slab ring are reused across batches, so steady-state serving does
zero SHM allocations and zero parent-side staging copies.  The data
plane surface (``run_leased`` / ``run_stack`` / ``run_batch``) and the
attempt policy come from :class:`~repro.runtime.backend.Backend`; this
module is the process-pool transport underneath.

**Crash recovery.**  A worker dying (OOM kill, segfault) breaks the
whole ``ProcessPoolExecutor``.  The failed attempt quiesces the broken
executor, releases the batch's output slab, respawns the worker set
(once per crash, however many batches observed it — generation
counted), and reports a crash replay to the backend, which re-dispatches
the batch: its input frames still sit untouched in the arena.  Only a
persistently crashing workload (the replay dies too) surfaces
:class:`~repro.errors.ShardCrashError`.  ``tests/test_fault_injection.py``
SIGKILLs real workers to hold the no-leak / no-hang / respawn-and-serve
contract.

Workers attach to a segment **once** and cache the mapping by name —
valid for the life of the arena, because pooled segments are only
unlinked at :meth:`close`.  Attachment never touches the resource
tracker: under the default ``fork`` start method the tracker process is
*shared* with the parent, so the historical attach-then-unregister dance
removed the parent's own registration — unlink then logged a KeyError
storm in the tracker and, had the parent died first, the segment would
have leaked in ``/dev/shm``.  ``tests/test_arena.py`` scans ``/dev/shm``
to keep the no-leak property honest.

Each worker holds its own :class:`~repro.runtime.batch.BatchToneMapper`,
built from the pool's ``(params, plan)``, so per-kernel Gaussian
coefficients and (for the fixed-point blur) the quantized coefficient
ROM are built once per process at pool start-up.  Both inputs cross the
process boundary by pickle — the fixed-point blur of
:func:`~repro.tonemap.fixed_blur.make_fixed_blur_fn` is a picklable
value, a closure ``blur_fn`` is refused at construction.

**Slabs.**  All ``shards`` workers start at construction, and every
batch is cut into ``min(shards, count)`` contiguous slabs, one per
worker — a split fixed up front, like the paper's design-time PS/PL
partition.

Outputs remain bit-identical to the in-process
:class:`~repro.runtime.batch.BatchToneMapper` path: workers run the same
stack code (:meth:`BatchToneMapper.run_stack`) and the float64→float32
store happens once either way.  Throughput and the zero-copy counters
are tracked by ``benchmarks/bench_runtime.py`` (see
``docs/benchmarks.md``).
"""

from __future__ import annotations

import inspect
import multiprocessing as mp
import os
import pickle
import signal
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ToneMapError
from repro.runtime.arena import ArenaLease
from repro.runtime.backend import (
    Backend,
    FreeReplay,
    Hedge,
    OutputSlot,
    Replay,
)
from repro.runtime.batch import BatchToneMapper
from repro.runtime.clock import MONOTONIC, Clock
from repro.tonemap.fixed_blur import FixedBlurFn
from repro.tonemap.pipeline import ToneMapParams

#: Worker-process global: the per-process mapper with warm caches.
_WORKER_MAPPER: Optional[BatchToneMapper] = None

#: Worker-process global: cached attachments to pooled arena segments,
#: keyed by POSIX name.  Pooled segments live until the arena closes, so
#: a cached mapping never goes stale; transient segments bypass this.
_WORKER_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}

#: Python 3.13+ can attach without registering with the resource tracker.
_SHM_HAS_TRACK = "track" in inspect.signature(
    shared_memory.SharedMemory.__init__
).parameters


def _init_worker(params: ToneMapParams, plan=None) -> None:
    """Build this worker's mapper once; subsequent slabs reuse its caches.

    ``plan`` is a pickled :class:`~repro.planner.plan.ExecutionPlan` (or
    ``None``): shipping the parent's plan means every worker replays the
    parent's dispatch decisions exactly, whatever env vars the worker
    process happens to see.  A fused plan runs on **one** thread per
    worker: the pool's parallelism model is one core per shard, and the
    plan's ``threads`` sizes the in-process engine.
    """
    global _WORKER_MAPPER
    _WORKER_MAPPER = BatchToneMapper(params, threads=1, plan=plan)
    if isinstance(params.blur_fn, FixedBlurFn):
        # Quantize the coefficient ROM now so the first slab pays nothing.
        params.blur_fn.config.quantized_coefficients(_WORKER_MAPPER.kernel)


def _worker_ready() -> bool:
    """No-op task used to force worker start-up at pool construction."""
    return _WORKER_MAPPER is not None


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without touching the resource tracker.

    The parent created the segment and owns its lifetime; it is already
    registered with the tracker there.  Under ``fork`` the tracker
    process is shared, so letting the attach register (and then
    unregistering, as the old code did) would delete the *parent's*
    registration: unlink later double-unregisters (KeyError noise in the
    tracker) and a parent crash before unlink would leak the segment.
    Python 3.13 exposes ``track=False`` for exactly this; earlier
    versions need the register call suppressed for the duration.
    """
    if _SHM_HAS_TRACK:
        return shared_memory.SharedMemory(name=name, track=False)
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _attach(name: str, cacheable: bool) -> shared_memory.SharedMemory:
    """Attach to a segment, caching pooled attachments for the pool's life."""
    if cacheable:
        shm = _WORKER_SEGMENTS.get(name)
        if shm is None:
            shm = _attach_untracked(name)
            _WORKER_SEGMENTS[name] = shm
        return shm
    return _attach_untracked(name)


def _run_slab(
    in_name: str,
    out_name: str,
    shape: tuple,
    lo: int,
    hi: int,
    in_cacheable: bool,
    out_cacheable: bool,
    fault: Optional[Tuple[str, float]] = None,
) -> tuple[int, int]:
    """Tone-map images ``lo:hi`` of the shared input stack in this worker.

    Robust against mid-flight errors: a transient attachment is closed on
    every exit path, and a failure before the output attach never leaks
    the input attachment.  Cached attachments are owned by the process
    and intentionally survive.

    ``fault`` is an injected failure directive from the pool's
    :class:`~repro.runtime.faults.FaultInjector` (``("kill", _)`` or
    ``("hang", seconds)``), applied before any slab work so the failure
    is clean: a killed worker never half-writes its slab, a hung one
    holds the batch exactly like stuck I/O would.
    """
    if fault is not None:
        kind, value = fault
        if kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "hang":
            MONOTONIC.sleep(value)
    in_shm = _attach(in_name, in_cacheable)
    try:
        out_shm = _attach(out_name, out_cacheable)
        try:
            stack = np.ndarray(shape, dtype=np.float32, buffer=in_shm.buf)
            out = np.ndarray(shape, dtype=np.float32, buffer=out_shm.buf)
            _WORKER_MAPPER.run_stack(stack[lo:hi], out=out[lo:hi])
        finally:
            if not out_cacheable:
                out_shm.close()
    finally:
        if not in_cacheable:
            in_shm.close()
    return lo, hi


def _slab_bounds(count: int, shards: int) -> list[tuple[int, int]]:
    """Split ``count`` images into at most ``shards`` contiguous slabs."""
    shards = min(shards, count)
    base, extra = divmod(count, shards)
    bounds = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


# ----------------------------------------------------------------------
# Hung-shard watchdog
# ----------------------------------------------------------------------
class _WatchToken:
    """One watched batch attempt: its kill deadline and whether it fired."""

    __slots__ = ("deadline", "expired")

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.expired = False


class _Watchdog:
    """Kills the worker set when a watched batch overruns its budget.

    A crashed worker announces itself (``BrokenProcessPool``); a *hung*
    one is silent — ``future.result()`` would block forever.  The
    watchdog turns hangs into crashes: :meth:`watch` registers a batch
    attempt's deadline, and a single lazy daemon thread SIGKILLs the
    current worker processes once any watched deadline passes, which
    breaks the pool and lets the attempt's crash path (quiesce →
    respawn) take over.  The token's ``expired`` flag is how the
    attempt tells a watchdog kill (a hedge) from an organic crash (a
    crash replay).

    Time comes from the injected clock, but wake-ups poll on a short
    real-time interval — so tests driving a
    :class:`~repro.runtime.clock.FakeClock` see the kill within
    ``poll_s`` of advancing it, without the watchdog needing to know
    the clock is fake.
    """

    def __init__(self, kill_fn, clock: Clock = MONOTONIC,
                 poll_s: float = 0.005):
        self._kill_fn = kill_fn
        self._clock = clock
        self._poll_s = poll_s
        self._cond = threading.Condition(threading.Lock())
        self._tokens: Set[_WatchToken] = set()
        self._kills = 0
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    def watch(self, deadline: float) -> _WatchToken:
        """Register a batch attempt; kill the workers at ``deadline``."""
        token = _WatchToken(deadline)
        with self._cond:
            if self._closed:
                raise ToneMapError("watchdog is closed")
            self._tokens.add(token)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="shard-watchdog", daemon=True
                )
                self._thread.start()
            self._cond.notify()
        return token

    def cancel(self, token: _WatchToken) -> None:
        """Stop watching ``token`` (the attempt finished on its own)."""
        with self._cond:
            self._tokens.discard(token)

    @property
    def kills(self) -> int:
        """Watchdog firings — each one SIGKILLed the worker set once."""
        with self._cond:
            return self._kills

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._tokens.clear()
            self._cond.notify()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)

    def _loop(self) -> None:
        while True:
            with self._cond:
                if self._closed:
                    return
                now = self._clock.now()
                due = [t for t in self._tokens if t.deadline <= now]
                for token in due:
                    token.expired = True
                    self._tokens.discard(token)
                if due:
                    self._kills += len(due)
                elif self._tokens:
                    self._cond.wait(self._poll_s)
                    continue
                else:
                    self._cond.wait()
                    continue
            # Fire outside the lock: the kill walks executor state and
            # must not hold up watch()/cancel() on the batch threads.
            self._kill_fn()


class ShardPool(Backend):
    """Tone-maps batches by sharding them across worker processes.

    Parameters
    ----------
    params:
        Pipeline parameters, pickled to every worker.  A ``blur_fn`` must
        therefore pickle — the fixed-point blur of
        :func:`~repro.tonemap.fixed_blur.make_fixed_blur_fn` does; a
        closure is refused with :class:`~repro.errors.ToneMapError` here,
        not later when a forkserver respawn would need it.
    shards:
        Worker processes, all started at construction; every batch is
        cut into ``min(shards, count)`` slabs, one per worker.
    arena_slots:
        Ring/pool depth per size class of the pool's arena.
    plan:
        An :class:`~repro.planner.plan.ExecutionPlan`; it is pickled to
        every worker so each one replays the parent's dispatch decisions
        (engine, band budget, blur method, calibration profile) exactly.
        A fused plan runs on **one** thread per worker process — the
        plan's ``threads`` describes the in-process engine, and N
        workers × plan-threads would oversubscribe the host.
    default_timeout_ms / faults / clock:
        The attempt budget, chaos plan and time source of
        :class:`~repro.runtime.backend.Backend`.  An attempt still
        running at its budget is SIGKILLed by the shard watchdog and
        hedged on the respawned workers.

    Workers start with ``fork`` on Linux (cheap start-up, inherited
    imports) and ``spawn`` elsewhere (forking after BLAS/framework
    threads start is unsafe on macOS); crash *respawns* use
    ``forkserver`` (see :meth:`_respawn`).  Use as a context manager or
    call :meth:`close` when done.
    """

    def __init__(
        self,
        params: Optional[ToneMapParams] = None,
        shards: int = 2,
        arena_slots: int = 4,
        plan=None,
        default_timeout_ms: Optional[float] = None,
        faults=None,
        clock: Clock = MONOTONIC,
    ):
        params = params if params is not None else ToneMapParams()
        if shards < 1:
            raise ToneMapError(f"shards must be >= 1, got {shards}")
        try:
            pickle.dumps(params)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ToneMapError(
                f"params must pickle to reach the worker processes "
                f"({exc}); use a module-level blur_fn such as "
                "make_fixed_blur_fn(), not a closure"
            ) from exc
        self.shards = shards
        self.params = params
        self.plan = plan
        super().__init__(arena_slots, default_timeout_ms, faults, clock)
        # fork only on Linux: macOS lists it but CPython switched its
        # default to spawn because forking after BLAS/framework threads
        # start is unsafe there.  Crash respawns must not plain-fork a
        # by-then-threaded parent (see _respawn).
        if sys.platform == "linux" and "fork" in mp.get_all_start_methods():
            self._mp_context = mp.get_context("fork")
            self._respawn_context = mp.get_context("forkserver")
        else:
            self._mp_context = self._respawn_context = mp.get_context("spawn")
        self._respawn_lock = threading.Lock()
        self._generation = 0
        self._reap_lock = threading.Lock()
        self._watchdog = _Watchdog(self._kill_workers, clock=clock)
        self._executor = self._spawn_executor(self._mp_context)

    def _spawn_executor(
        self, mp_context: mp.context.BaseContext
    ) -> ProcessPoolExecutor:
        """Start a full worker set and prove every initializer ran.

        One pending task per worker forces the executor to start all
        processes, and resolving the futures proves each initializer
        ran.  At construction no process is ever forked after caller
        threads exist.  The warm-up wait is bounded:
        a worker that cannot initialize must fail the pool loudly, not
        wedge it.
        """
        executor = ProcessPoolExecutor(
            max_workers=self.shards,
            mp_context=mp_context,
            initializer=_init_worker,
            initargs=(self.params, self.plan),
        )
        try:
            for future in [
                executor.submit(_worker_ready) for _ in range(self.shards)
            ]:
                if not future.result(timeout=120.0):  # pragma: no cover
                    raise ToneMapError("shard worker failed to initialize")
        except Exception:
            executor.shutdown(wait=False, cancel_futures=True)
            raise
        return executor

    def _respawn(self, generation: int) -> None:
        """Replace a broken executor with a fresh warm worker set.

        Idempotent per executor generation: concurrent batches that all
        observed the same crash race here, the first one rebuilds, the
        rest see the bumped generation and return — so one crash costs
        one respawn, not one per in-flight batch.

        Respawned workers never use plain ``fork``, even when the pool
        was built with it: a respawn necessarily creates processes
        while service threads are live, and a child forked from a
        multi-threaded parent can inherit an internal queue lock in the
        held state and deadlock before it ever picks up work (observed
        under chaos load as a pool that never comes back).  Respawns
        use ``forkserver`` where available — its server process is
        created by fork+exec (exec wipes inherited thread state) and
        workers then fork from that single-threaded server; unlike
        ``spawn`` it also never re-imports ``__main__``, so caller
        scripts without an import guard survive a respawn.  ``fork``
        remains the cheap default only for initial construction, where
        no caller threads exist yet.
        """
        with self._respawn_lock:
            if self._generation != generation:
                return  # another thread already replaced this executor
            broken = self._executor
            self._executor = self._spawn_executor(self._respawn_context)
            self._generation += 1
            with self._count_lock:
                self._respawns += 1
        self._shutdown_broken(broken)

    def _shutdown_broken(self, executor: ProcessPoolExecutor) -> None:
        """Shut a broken executor down exactly once, across racing batches.

        Concurrent batches that all hit the same ``BrokenProcessPool``
        each want to join the corpse before releasing their output
        slabs — but ``ProcessPoolExecutor.shutdown`` is not safe to call
        concurrently: both threads see the same live queue FDs and both
        ``os.close`` them, and the second close lands *after* the OS has
        recycled those fd numbers to the replacement executor's fresh
        pipes.  That stray close poisons the new executor (its manager
        thread dies on fd aliasing — ``KeyError: FD already
        registered`` — and every pending future hangs forever).  One
        thread wins the right to call ``shutdown``; the losers wait on
        its completion event instead of double-closing.
        """
        with self._reap_lock:
            event = getattr(executor, "_repro_reaped", None)
            owner = event is None
            if owner:
                event = threading.Event()
                executor._repro_reaped = event  # type: ignore[attr-defined]
        if owner:
            try:
                executor.shutdown(wait=True)
            finally:
                event.set()
        else:
            event.wait()

    def worker_pids(self) -> List[int]:
        """PIDs of the current worker processes.

        Exposed for operational tooling and the fault-injection tests
        (which SIGKILL one to prove the pool recovers); the list is a
        snapshot — workers may be respawned at any time.

        Safe against the races the watchdog's ``_kill_workers`` already
        defends against: the executor's management thread mutates
        ``_processes`` while workers start and die, ``_executor`` itself
        is swapped mid-:meth:`_respawn`, and a shut-down executor sets
        ``_processes`` to ``None``.  The read snapshots one executor
        reference and copies its process dict under try/except; a
        torn-down executor yields ``[]``, never an exception.
        """
        executor = self._executor  # one reference: respawn swaps it
        try:
            processes = executor._processes
            if not processes:
                return []
            return [
                process.pid
                for process in list(processes.values())
                if process.pid is not None
            ]
        except (AttributeError, TypeError, RuntimeError):
            # _processes gone (shutdown), None, or mutated mid-copy.
            return []

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    def _kill_workers(self) -> None:
        """SIGKILL the current worker set (watchdog fire path).

        Racy by design: the executor may be mid-respawn or shutting
        down, and a pid may have already exited.  Every failure mode is
        benign — a worker we miss either belongs to a fresh generation
        (innocent) or is already dead — so swallow them all rather than
        let the watchdog thread die.
        """
        try:
            pids = self.worker_pids()
        except Exception:
            return
        for pid in pids:
            if pid is None:
                continue
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError, OSError):
                pass

    @property
    def watchdog_kills(self) -> int:
        """Times the watchdog SIGKILLed the workers of an over-budget batch."""
        return self._watchdog.kills

    @property
    def active_shards(self) -> int:
        """Workers every batch fans out across: all of them."""
        return self.shards

    # ------------------------------------------------------------------
    # The transport
    # ------------------------------------------------------------------
    def _attempt(
        self,
        in_lease: ArenaLease,
        out: OutputSlot,
        timeout: Optional[float],
        index: int,
        kinds: frozenset,
        avoid: object,
    ) -> ArenaLease:
        """Fan one attempt out as one slab per worker.

        A dying worker breaks the whole executor (``BrokenProcessPool``):
        a crash replay, or a hedge when the watchdog killed the workers
        at this attempt's budget, or free when another batch's respawn
        had already replaced the executor this attempt ran on.
        """
        generation = self._generation
        executor = self._executor
        if "slow" in kinds:
            self._clock.sleep(self.faults.plan.jitter_s(index))
        out_lease = out.take(force_transient="exhaust" in kinds)
        directive = self.faults.worker_directive(kinds) if kinds else None
        token = (
            None
            if timeout is None
            else self._watchdog.watch(self._clock.now() + timeout)
        )
        futures = []
        try:
            # Plain loop, not a comprehension: if a submit raises midway
            # (pool shutting down), the futures already submitted must
            # stay tracked so the except path can quiesce them.
            for slab_index, (lo, hi) in enumerate(
                _slab_bounds(out.shape[0], self.shards)
            ):
                futures.append(
                    executor.submit(
                        _run_slab,
                        in_lease.segment_name,
                        out_lease.segment_name,
                        out.shape,
                        lo,
                        hi,
                        in_lease.cacheable,
                        out_lease.cacheable,
                        directive if slab_index == 0 else None,
                    )
                )
            for future in futures:
                future.result()
        except BrokenProcessPool as exc:
            # The broken executor's futures are already resolved, but
            # *surviving* worker processes may still be mid-write into
            # the output slab (the manager thread fails futures before
            # it finishes terminating the other workers).  Join the
            # whole broken executor before the slab goes back to the
            # ring, and hand it back before the (slow) respawn.
            self._quiesce(token, futures)
            self._shutdown_broken(executor)
            out.release()
            stale = self._generation != generation
            self._respawn(generation)
            if token is not None and token.expired:
                raise Hedge(
                    "was killed by the shard watchdog at its execution "
                    "budget"
                ) from exc
            if stale:
                raise FreeReplay() from exc
            raise Replay(
                f"lost a shard worker (respawns so far: "
                f"{self.worker_respawns})"
            ) from exc
        except BaseException:
            self._quiesce(token, futures)
            raise
        if token is not None:
            self._watchdog.cancel(token)
        return out_lease

    def _quiesce(self, token: Optional[_WatchToken], futures: list) -> None:
        """Stop watching a failed attempt and wait out its running slabs.

        The surviving slab workers still write the output segment (and
        read the input) until they finish; releasing the slab before
        that would recycle it to a concurrent batch — silent cross-batch
        corruption.  Cancel what hasn't started, wait out what has.
        """
        if token is not None:
            self._watchdog.cancel(token)
        for future in futures:
            future.cancel()
        wait(futures)

    def _shutdown(self) -> None:
        """Shut the workers down, waiting for running slabs.

        The watchdog outlives the executor shutdown on purpose: if a
        hung batch is still in flight, ``shutdown(wait=True)`` only
        returns once the watchdog frees it.  Shutdown goes through the
        exactly-once guard — a crash-handling batch may be reaping this
        same executor concurrently (see :meth:`_shutdown_broken`).
        """
        self._shutdown_broken(self._executor)
        self._watchdog.close()
