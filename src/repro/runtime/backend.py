"""One execution backend: the surface and attempt policy all transports share.

The paper puts one accelerator behind one data-mover interface.  This
repo reaches its "accelerator" over three transports — worker processes
reading a shared-memory arena (:class:`~repro.runtime.shard.ShardPool`),
serving hosts behind a socket
(:class:`~repro.runtime.hostpool.HostPool`) and the caller's own
process (:class:`LocalBackend`) — and :class:`Backend` is what they
share: the owned arena and the one data-plane call (``lease_input`` +
``run_leased``, counted by :class:`DataPlaneStats`), the ``drain``
admission gate, and
the attempt policy — one fault-plan draw per attempt, one crash replay
and one hedge per batch, and the only place the terminal
:class:`~repro.errors.ShardCrashError` /
:class:`~repro.errors.ShardTimeoutError` are built.

A transport implements :meth:`Backend._attempt`: run the batch once and
return its output lease, or raise a classified failure
(:class:`Replay`, :class:`Hedge`, :class:`FreeReplay`); anything else
propagates unchanged.  The per-transport failure table is in
``docs/architecture.md``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ShardCrashError, ShardTimeoutError, ToneMapError
from repro.runtime.arena import ArenaLease, ArenaStats, ShmArena
from repro.runtime.clock import MONOTONIC, Clock
from repro.runtime.faults import resolve_injector
from repro.runtime.net import NetStats

#: Crash-shaped failed attempts a batch may replay before
#: :class:`~repro.errors.ShardCrashError` surfaces.
CRASH_REPLAYS = 1

#: Timeout-shaped failed attempts a batch may hedge before
#: :class:`~repro.errors.ShardTimeoutError` surfaces.
HEDGES = 1


@dataclass(frozen=True)
class DataPlaneStats:
    """Per-pool data-plane counters (arena counters plus batch count).

    ``copies_per_frame`` is the headline number: parent-side staging
    bytes (copy-in plus materialize) per frame served, as a fraction of
    the frame size.  The earlier per-batch SHM cycle measured 3.0
    (stack, copy-in, copy out — and a fourth inside ``HDRImage``); the
    zero-copy path measures 0.0.

    A :class:`~repro.runtime.hostpool.HostPool` fills ``net`` with its
    wire-endpoint counters, whose ``bytes_staged`` (userspace staging
    around the socket hop — 0 on the scatter-gather path) joins the
    same honesty sum, and ``worker_respawns`` counts *host* respawns.
    A single-host pool leaves ``net`` all zeros.
    """

    batches: int = 0
    frames: int = 0
    bytes_served: int = 0
    worker_respawns: int = 0
    arena: ArenaStats = ArenaStats()
    net: NetStats = NetStats()

    @property
    def copies_per_frame(self) -> float:
        """Staging bytes per frame-byte served (3.0 legacy, 0.0 zero-copy)."""
        if self.bytes_served <= 0:
            return 0.0
        return self.bytes_staged / self.bytes_served

    @property
    def bytes_staged(self) -> int:
        """Total parent-side staging traffic (copy-in + materialize +
        any userspace staging around the wire)."""
        return (
            self.arena.bytes_copied_in
            + self.arena.bytes_materialized
            + self.net.bytes_staged
        )


class AttemptFailed(Exception):
    """A transport's verdict on one failed attempt; never escapes.

    The message completes the sentence "N-frame batch ..." of the
    terminal error, and the transport chains the original exception
    with ``raise ... from``.  ``where`` names what the attempt ran on
    (a host), so the next attempt can prefer somewhere else.
    """

    def __init__(self, reason: str = "", where: object = None):
        super().__init__(reason)
        self.where = where


class Replay(AttemptFailed):
    """Crash-shaped: replay the batch, spending the crash replay."""


class Hedge(AttemptFailed):
    """Timeout-shaped: hedge the batch, spending the hedge."""


class FreeReplay(AttemptFailed):
    """The batch raced a concurrent respawn: replay it for free."""


class OutputSlot:
    """Where one attempt's output slab lives.

    The transport takes the lease when it is ready for results (a
    shard pool before dispatch, a host pool once the reply header
    arrived); the backend releases it if the attempt fails.  Release is
    idempotent, so a transport may hand the slab back early.
    """

    __slots__ = ("_arena", "shape", "lease")

    def __init__(self, arena: ShmArena, shape: tuple):
        self._arena = arena
        self.shape = shape
        self.lease: Optional[ArenaLease] = None

    def take(self, force_transient: bool = False) -> ArenaLease:
        self.lease = self._arena.lease_output(
            self.shape, np.float32, force_transient=force_transient
        )
        return self.lease

    def release(self) -> None:
        lease, self.lease = self.lease, None
        if lease is not None:
            lease.release()


class Backend:
    """The shared core of ``ShardPool``, ``HostPool`` and ``LocalBackend``.

    ``arena_slots`` sizes the owned arena; ``default_timeout_ms`` is the
    per-attempt budget of a ``run_leased`` call that passes no
    ``timeout`` (``None``: no budget); ``faults`` is a
    :class:`~repro.runtime.faults.FaultPlan`, spec string or shared
    injector (``None`` consults ``REPRO_FAULT_PLAN``); ``clock`` is the
    injectable time source.
    """

    # Counters a transport lacks read zero: the workers a batch fans out
    # across (both pools) and host loss (HostPool).
    active_shards = 0
    hosts_lost = 0

    def __init__(
        self,
        arena_slots: int,
        default_timeout_ms: Optional[float],
        faults,
        clock: Clock,
    ):
        if default_timeout_ms is not None and not default_timeout_ms > 0:
            raise ToneMapError(
                f"default_timeout_ms must be > 0, got {default_timeout_ms}"
            )
        self.arena = ShmArena(slots=arena_slots)
        self.faults = resolve_injector(faults)
        self._clock = clock
        self._default_timeout_s = (
            None if default_timeout_ms is None else default_timeout_ms / 1e3
        )
        # Guards the admission gate; a transport may guard its own
        # membership state with it too (HostPool's host liveness).
        self._state = threading.Condition()
        self._draining = False
        self._closed = False
        self._in_flight = 0
        # Batches complete concurrently on the service's pool threads;
        # the gate benchmarks divide by these, so no lost increments.
        self._count_lock = threading.Lock()
        self._batches = 0
        self._frames = 0
        self._bytes_served = 0
        self._respawns = 0
        self._hedged_replays = 0
        self._watchdog_kills = 0

    def _attempt(
        self,
        in_lease: ArenaLease,
        out: OutputSlot,
        timeout: Optional[float],
        index: int,
        kinds: frozenset,
        avoid: object,
    ) -> ArenaLease:
        """Run the first ``out.shape[0]`` frames of ``in_lease`` once.

        ``timeout`` is this attempt's budget in seconds (``None``: no
        budget), ``index``/``kinds`` its fault-plan draw, ``avoid`` the
        ``where`` of the previous failed attempt.  Returns the lease
        taken from ``out``, or raises only once nothing writes into it.
        """
        raise NotImplementedError

    def _shutdown(self) -> None:
        """Stop the transport; the arena closes right after."""
        raise NotImplementedError

    def _draw_faults(self) -> tuple:
        """One fault-plan draw for the next attempt: ``(index, kinds)``."""
        if self.faults is None:
            return 0, frozenset()
        return self.faults.next_attempt()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def lease_input(self, shape: tuple, dtype=np.float32) -> ArenaLease:
        """Lease an arena input stack for producers to write frames into."""
        return self.arena.lease_input(shape, dtype)

    def run_leased(
        self,
        in_lease: ArenaLease,
        count: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> ArenaLease:
        """Tone-map a stack already resident in the arena (zero-copy).

        ``in_lease`` holds ``count`` frames (default: all of them); the
        caller keeps ownership of it.  Returns an output lease viewing
        the results; release or materialize it.  ``timeout`` (seconds,
        finite and > 0; default ``default_timeout_ms``) is the budget of
        each *attempt* — a hedge gets a fresh one, since an attempt
        killed exactly at its deadline must still leave the hedge worth
        taking.  Past one crash replay or one hedge
        :class:`~repro.errors.ShardCrashError` or
        :class:`~repro.errors.ShardTimeoutError` surfaces; either way
        no lease leaks and the pool stays usable.
        """
        if in_lease.array is None:
            raise ToneMapError("cannot run a released arena lease")
        shape = in_lease.array.shape
        if count is None:
            count = shape[0]
        if not 1 <= count <= shape[0]:
            raise ToneMapError(
                f"count must be in [1, {shape[0]}], got {count}"
            )
        if timeout is None:
            timeout = self._default_timeout_s
        elif not (math.isfinite(timeout) and timeout > 0):
            raise ToneMapError(
                f"timeout must be a finite number of seconds > 0, got "
                f"{timeout!r}"
            )
        with self._state:
            if self._draining or self._closed:
                raise ToneMapError(
                    f"{type(self).__name__} is "
                    f"{'closed' if self._closed else 'draining'}"
                )
            self._in_flight += 1
        try:
            out_lease = self._run_attempts(
                in_lease, (count,) + tuple(shape[1:]), timeout
            )
        finally:
            with self._state:
                self._in_flight -= 1
                self._state.notify_all()
        with self._count_lock:
            self._batches += 1
            self._frames += count
            self._bytes_served += out_lease.nbytes
        return out_lease

    def _run_attempts(
        self, in_lease: ArenaLease, run_shape: tuple, timeout: Optional[float]
    ) -> ArenaLease:
        """The attempt loop: the one place budgets are spent."""
        count = run_shape[0]
        replays, hedges = CRASH_REPLAYS, HEDGES
        avoid = None
        start = self._clock.now()
        while True:
            index, kinds = self._draw_faults()
            out = OutputSlot(self.arena, run_shape)
            try:
                try:
                    return self._attempt(
                        in_lease, out, timeout, index, kinds, avoid
                    )
                except BaseException:
                    out.release()
                    raise
            except FreeReplay as failure:
                avoid = failure.where
            except Replay as failure:
                avoid = failure.where
                if replays == 0:
                    raise ShardCrashError(
                        f"{count}-frame batch {failure}; its "
                        f"{CRASH_REPLAYS} crash replay(s) are spent"
                    ) from failure.__cause__
                replays -= 1
            except Hedge as failure:
                avoid = failure.where
                if hedges == 0:
                    elapsed_ms = (self._clock.now() - start) * 1e3
                    raise ShardTimeoutError(
                        f"{count}-frame batch {failure} ({elapsed_ms:.0f} "
                        f"ms elapsed, {HEDGES} hedged replay(s))",
                        elapsed_ms=elapsed_ms,
                        retries=HEDGES,
                    ) from failure.__cause__
                hedges -= 1
                with self._count_lock:
                    self._hedged_replays += 1

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def worker_respawns(self) -> int:
        """Worker sets (or hosts) rebuilt after crashes (0 in health)."""
        with self._count_lock:
            return self._respawns

    @property
    def hedged_replays(self) -> int:
        """Batches hedged after a timeout-shaped failed attempt."""
        with self._count_lock:
            return self._hedged_replays

    @property
    def watchdog_kills(self) -> int:
        """Attempts ended at their budget: a shard attempt that SIGKILLed
        its workers, or a host exchange whose connection was severed."""
        with self._count_lock:
            return self._watchdog_kills

    @property
    def net_stats(self) -> NetStats:
        """Wire counters of this endpoint (all zeros without a wire)."""
        return NetStats()

    @property
    def data_plane_stats(self) -> DataPlaneStats:
        """Counters proving (or disproving) the zero-copy claims."""
        net = self.net_stats
        with self._count_lock:
            return DataPlaneStats(
                batches=self._batches,
                frames=self._frames,
                bytes_served=self._bytes_served,
                worker_respawns=self._respawns,
                arena=self.arena.stats,
                net=net,
            )

    def drain(self) -> None:
        """Graceful close: refuse new batches, finish admitted ones
        (replay and hedge included), then close.  Idempotent."""
        with self._state:
            if self._closed:
                return
            self._draining = True
            while self._in_flight > 0 and not self._closed:
                self._state.wait()
        self.close()

    def close(self) -> None:
        """Refuse new batches, stop the transport, close the arena."""
        with self._state:
            self._closed = True
            self._state.notify_all()
        self._shutdown()
        self.arena.close()

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class LocalBackend(Backend):
    """The in-process transport: a batch mapper on the calling thread.

    Each attempt runs :meth:`~repro.runtime.batch.BatchToneMapper.run_stack`
    from the input lease straight into the output slab.  A thread cannot
    be killed, so no attempt budget applies and no attempt is ever
    replayed or hedged; of the fault plan only ``slow`` jitter has an
    in-process analogue, drawn from the injector's in-process stream
    (:meth:`~repro.runtime.faults.FaultInjector.next_inproc`) and slept
    on the injected clock.  Closing the backend closes the mapper.
    """

    def __init__(
        self,
        mapper,
        arena_slots: int = 4,
        faults=None,
        clock: Clock = MONOTONIC,
    ):
        super().__init__(arena_slots, None, faults, clock)
        self.mapper = mapper

    def _draw_faults(self) -> tuple:
        if self.faults is None:
            return 0, frozenset()
        return self.faults.next_inproc()  # only ever reports "slow"

    def _attempt(self, in_lease, out, timeout, index, kinds, avoid):
        if "slow" in kinds:
            self._clock.sleep(self.faults.plan.jitter_s(index))
        out_lease = out.take()
        self.mapper.run_stack(
            in_lease.array[: out.shape[0]], out=out_lease.array
        )
        return out_lease

    def _shutdown(self) -> None:
        self.mapper.close()
