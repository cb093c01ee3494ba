"""Persistent shared-memory arena: pooled input stacks, output slab ring.

The PR 2 sharding backend treated shared memory as a per-batch rental:
every ``run_stack`` created two fresh POSIX segments, memcpy'd the pixel
stack in, copied the results back out, and unlinked both.  Those three
full-stack copies (plus the create/unlink round trips through the kernel
and the resource tracker) are exactly the host-side staging the paper's
FPGA data path avoids by streaming frames over AXI/DMA — the accelerator
never re-buffers a frame it already holds.

:class:`ShmArena` is the software equivalent of that discipline: a small,
long-lived pool of shared-memory segments that batches flow *through*
instead of being copied *into*.

* **Input stacks** are pooled by size class (power-of-two bytes, page
  floor): a released segment goes back on its class's free list and the
  next same-class batch reuses it, so steady-state serving performs zero
  SHM allocations.  Producers write frames straight into a leased input
  stack (the ingestor does this at ``submit()`` time), making batch
  close-out a pointer hand-off.
* **Output slabs** form a ring per size class: a bounded number of slabs
  (``slots``) cycle between "leased to a consumer" and "free for the next
  batch".  Results are returned as zero-copy NumPy views into a slab,
  wrapped in a reference-counted :class:`ArenaLease`; releasing the lease
  recycles the slab.  Consumers that outlive a slab's turn in the ring
  call :meth:`ArenaLease.materialize` instead — the safety fallback that
  copies once and releases (the asyncio/futures path does this, because
  a future's consumer cannot be trusted to release promptly).
* When a class's free structures are empty and all ``slots`` slabs are
  out on lease, the arena **overflows**: it creates a transient segment
  that is unlinked (not recycled) on release.  Overflow keeps mixed-shape
  storms deadlock-free at the cost of an allocation, and is counted in
  :class:`ArenaStats` so benchmarks can assert it never happens on the
  steady-state path.

Worker processes attach to pooled segments once and cache the mapping by
segment name (see :mod:`repro.runtime.shard`); transient segments are
marked non-cacheable so workers never hold a mapping the parent is about
to unlink.  All sizes are page-multiples, so a reused segment's mapping
is always exactly as large as its class.

Lifecycle hygiene: the arena owns every segment it creates and unlinks
them all in :meth:`close`.  Unlink is unconditional.  A lease's
``array`` is built with ``np.frombuffer``, which holds a buffer export
on the segment's mapping, so a view that outlives :meth:`close` (the
lease's array, any slice of it, a :class:`ResultHandle`'s pixels) pins
the mapping: ``mmap.close`` raises ``BufferError``, the arena swallows
it, the name still leaves ``/dev/shm``, and the pages are unmapped and
freed when the last view dies.  Reading such a view stays valid rather
than touching unmapped memory.  A leak-check test scans ``/dev/shm`` to
keep this honest (``tests/test_arena.py``).
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import threading
from collections import deque
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ToneMapError

#: Smallest segment size class; POSIX shared memory is page-granular
#: anyway, so classes below one page would all alias the same allocation.
PAGE_BYTES = mmap.PAGESIZE


def size_class(nbytes: int) -> int:
    """Round a byte count up to its arena size class (power of two).

    Power-of-two classes mean a 6-frame and an 8-frame batch of the same
    frame shape usually share a class, so the pool stays small under
    mixed batch sizes while never wasting more than 2x the bytes.
    """
    if nbytes < 0:
        raise ToneMapError(f"segment size must be >= 0, got {nbytes}")
    nbytes = max(nbytes, PAGE_BYTES)
    return 1 << (nbytes - 1).bit_length()


@dataclass(frozen=True)
class ArenaStats:
    """Counters of one :class:`ShmArena` (a consistent snapshot).

    Attributes
    ----------
    segments_created:
        Shared-memory segments created since construction (pooled and
        transient).  Flat across steady-state serving — the zero-alloc
        claim benchmarks assert.
    acquisitions:
        Leases handed out (input + output).
    reuses:
        Acquisitions served from a free list / the ring, i.e. without
        touching the kernel.
    overflow:
        Acquisitions that had to create a transient segment because the
        class's ring was fully leased.
    leases_active:
        Leases currently outstanding (goes to zero when callers behave).
    pooled_segments / pooled_bytes:
        Segments currently resident (pooled, whether free or leased).
    bytes_copied_in:
        Parent-side staging bytes copied into input stacks by the
        compatibility APIs (``ShardPool.run_stack``).  The zero-copy path
        leaves this flat — producers write frames directly.
    bytes_materialized:
        Bytes copied out of output slabs by :meth:`ArenaLease.materialize`
        (the safety fallback).  The lease path leaves this flat.
    """

    segments_created: int = 0
    acquisitions: int = 0
    reuses: int = 0
    overflow: int = 0
    leases_active: int = 0
    pooled_segments: int = 0
    pooled_bytes: int = 0
    bytes_copied_in: int = 0
    bytes_materialized: int = 0


class _SharedMemory(shared_memory.SharedMemory):
    """A segment that a still-viewed mapping can outlive.

    While a NumPy view exports the mapping, ``close()`` raises
    ``BufferError`` and the mapping stays until its last view dies.  The
    mapping holds its own duplicate of the segment's descriptor, so this
    object's descriptor is released at once instead of leaking (the
    standard close stops at the error before reaching it), and there is
    nothing to report when this object is collected before the views.
    """

    def close(self) -> None:
        try:
            super().close()
        except BufferError:
            fd = getattr(self, "_fd", -1)
            if fd >= 0:
                os.close(fd)
                self._fd = -1
            raise

    def __del__(self) -> None:
        with contextlib.suppress(BufferError):
            super().__del__()


class _Segment:
    """One shared-memory segment plus its pooling metadata."""

    __slots__ = ("shm", "nbytes", "kind", "transient")

    def __init__(
        self, shm: _SharedMemory, nbytes: int, kind: str,
        transient: bool,
    ):
        self.shm = shm
        self.nbytes = nbytes
        self.kind = kind
        self.transient = transient


class ArenaLease:
    """A reference-counted claim on an arena segment.

    ``array`` is a zero-copy NumPy view into the segment.  The lease
    starts with one reference; :meth:`acquire` adds sharers and
    :meth:`release` drops them.  When the count reaches zero the segment
    returns to its pool (or is unlinked, if transient) and ``array``
    becomes ``None`` — callers that need the data beyond the lease call
    :meth:`materialize`, which copies once and releases.

    Releasing an already-dead lease raises :class:`ToneMapError`: a
    double release would hand the same slab to two batches at once, so
    it must fail loudly rather than corrupt silently.
    """

    def __init__(
        self, arena: "ShmArena", segment: _Segment,
        shape: Tuple[int, ...], dtype: np.dtype,
    ):
        self._arena = arena
        self._segment = segment
        self._refs = 1
        self._lock = threading.Lock()
        # frombuffer holds a buffer export, so the mapping cannot be
        # unmapped while this view (or any view of it) is alive.
        self.array: Optional[np.ndarray] = np.frombuffer(
            segment.shm.buf, dtype, math.prod(shape)
        ).reshape(shape)

    @property
    def segment_name(self) -> str:
        """The POSIX name workers attach to."""
        return self._segment.shm.name

    @property
    def cacheable(self) -> bool:
        """Whether workers may cache their attachment by name.

        Pooled segments live until :meth:`ShmArena.close`, so a worker's
        cached mapping stays valid across batches.  Transient (overflow)
        segments are unlinked on release and must be re-attached per use.
        """
        return not self._segment.transient

    @property
    def nbytes(self) -> int:
        """Payload bytes of the leased view."""
        return 0 if self.array is None else self.array.nbytes

    def acquire(self) -> "ArenaLease":
        """Add one reference (e.g. one per fan-out consumer)."""
        with self._lock:
            if self._refs <= 0:
                raise ToneMapError("cannot acquire a released arena lease")
            self._refs += 1
        return self

    def release(self) -> None:
        """Drop one reference; recycles the segment at zero."""
        with self._lock:
            if self._refs <= 0:
                raise ToneMapError(
                    "arena lease released more times than acquired"
                )
            self._refs -= 1
            last = self._refs == 0
            if last:
                self.array = None
        if last:
            self._arena._recycle(self._segment)

    def materialize(self) -> np.ndarray:
        """Copy the view out, release the lease, return the copy.

        The safety fallback for consumers that cannot promise a prompt
        :meth:`release` (futures handed to arbitrary callers, the asyncio
        path): one copy buys an unbounded lifetime.
        """
        if self.array is None:
            raise ToneMapError("cannot materialize a released arena lease")
        out = self.array.copy()
        self._arena._count_materialized(out.nbytes)
        self.release()
        return out

    def __enter__(self) -> "ArenaLease":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._refs > 0:
            self.release()


class ResultHandle:
    """A lease-native, zero-copy view of one tone-mapped frame.

    The futures path historically materialized every batch once — the
    safety fallback for consumers that cannot be trusted to release a
    slab promptly.  ``ResultHandle`` closes that gap for in-process
    consumers that *can*: each handle holds its own reference on the
    batch's output :class:`ArenaLease` (refcount-safe with the slab
    ring — the slab recycles only when every frame's handle has been
    released), and :attr:`pixels` is a view straight into shared
    memory, so reading a result costs zero copies.

    The contract is explicit release: call :meth:`release` (or use the
    handle as a context manager) when done with the view, or call
    :meth:`materialize` to trade one copy for an unbounded lifetime.
    A handle that is garbage-collected unreleased releases itself as a
    leak backstop — but by then the slab sat out of the ring for the
    handle's whole GC lifetime, so storms of forgotten handles degrade
    the arena to transient-overflow allocations (visible in
    :class:`ArenaStats`).  Release promptly.
    """

    __slots__ = ("_lease", "_slot", "_released", "name")

    def __init__(self, lease: ArenaLease, slot: int, name: str):
        self._lease = lease.acquire()
        self._slot = slot
        self._released = False
        self.name = name

    @property
    def released(self) -> bool:
        return self._released

    @property
    def pixels(self) -> np.ndarray:
        """Zero-copy float32 view of the frame (valid until release)."""
        if self._released:
            raise ToneMapError(
                "cannot read a released result handle (materialize() "
                "before release if the data must outlive the lease)"
            )
        return self._lease.array[self._slot]

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self.pixels.shape)

    def release(self) -> None:
        """Drop this frame's reference on the output slab; idempotent."""
        if self._released:
            return
        self._released = True
        self._lease.release()

    def materialize(self):
        """Copy the frame out, release the handle, return an ``HDRImage``.

        The one-copy fallback for results that must outlive the slab
        ring (exactly what the non-lease futures path does for every
        frame).
        """
        from repro.image.hdr import HDRImage

        pixels = self.pixels.copy()
        self._lease._arena._count_materialized(pixels.nbytes)
        self.release()
        return HDRImage.adopt(pixels, name=self.name)

    def __enter__(self) -> "ResultHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __del__(self):  # pragma: no cover - GC-timing dependent
        try:
            self.release()
        except Exception:
            pass


class ShmArena:
    """Pooled shared-memory segments for the sharded data plane.

    Parameters
    ----------
    slots:
        Ring depth / pool depth **per size class and kind**: how many
        input stacks (resp. output slabs) of one class may be resident
        at once before further acquisitions overflow into transient
        segments.  Two or three is enough for a pipeline that overlaps
        one in-flight batch with one being assembled; raise it for
        deeper pipelining.

    Use as a context manager or call :meth:`close` when done.  The arena
    is thread-safe; it is shared by the service's pool threads and the
    ingestor's submit path.
    """

    def __init__(self, slots: int = 4):
        if slots < 1:
            raise ToneMapError(f"arena slots must be >= 1, got {slots}")
        self.slots = slots
        self._lock = threading.Lock()
        self._free: Dict[Tuple[str, int], Deque[_Segment]] = {}
        self._resident: Dict[Tuple[str, int], int] = {}
        self._segments: List[_Segment] = []
        self._closed = False
        # Plain integers, bumped on every lease and release; the frozen
        # ArenaStats is built only when someone reads it.
        self._counts = dict.fromkeys(ArenaStats.__dataclass_fields__, 0)

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------
    def lease_input(
        self, shape: Tuple[int, ...], dtype=np.float32
    ) -> ArenaLease:
        """Lease a pooled input stack shaped ``shape`` (write frames here)."""
        return self._lease("in", shape, dtype)

    def lease_output(
        self, shape: Tuple[int, ...], dtype=np.float32,
        force_transient: bool = False,
    ) -> ArenaLease:
        """Lease an output slab from the ring (workers write results here).

        ``force_transient`` skips the pooled ring and takes the
        transient-overflow path directly, as if every resident slab were
        held — the hook chaos tests use to exercise arena exhaustion
        without actually pinning slabs.
        """
        return self._lease("out", shape, dtype,
                           force_transient=force_transient)

    def _lease(self, kind: str, shape, dtype,
               force_transient: bool = False) -> ArenaLease:
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        if nbytes <= 0:
            raise ToneMapError(f"cannot lease an empty segment for {shape}")
        cls = size_class(nbytes)
        key = (kind, cls)
        with self._lock:
            if self._closed:
                raise ToneMapError("arena is closed")
            free = self._free.setdefault(key, deque())
            if force_transient:
                segment = self._create(cls, kind, transient=True)
                self._bump(acquisitions=1, overflow=1)
            elif free:
                segment = free.popleft()
                self._bump(acquisitions=1, reuses=1)
            elif self._resident.get(key, 0) < self.slots:
                segment = self._create(cls, kind, transient=False)
                self._resident[key] = self._resident.get(key, 0) + 1
                self._bump(acquisitions=1)
            else:
                # Ring exhausted: overflow into a transient segment so the
                # caller never deadlocks on a slab a slow consumer holds.
                segment = self._create(cls, kind, transient=True)
                self._bump(acquisitions=1, overflow=1)
            self._bump(leases_active=1)
        return ArenaLease(self, segment, tuple(shape), np.dtype(dtype))

    def _create(self, nbytes: int, kind: str, transient: bool) -> _Segment:
        shm = _SharedMemory(create=True, size=nbytes)
        segment = _Segment(shm, nbytes, kind, transient)
        if not transient:
            self._segments.append(segment)
        self._bump(
            segments_created=1,
            pooled_segments=0 if transient else 1,
            pooled_bytes=0 if transient else nbytes,
        )
        return segment

    def _recycle(self, segment: _Segment) -> None:
        with self._lock:
            self._bump(leases_active=-1)
            if segment.transient or self._closed:
                # Transient segments die on release; segments released
                # after close were already unlinked there.
                if segment.transient:
                    self._unlink(segment)
                return
            self._free.setdefault(
                (segment.kind, segment.nbytes), deque()
            ).append(segment)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def _bump(self, **deltas: int) -> None:
        # Callers hold self._lock.
        for name, delta in deltas.items():
            self._counts[name] += delta

    def _count_copy_in(self, nbytes: int) -> None:
        with self._lock:
            self._bump(bytes_copied_in=nbytes)

    def _count_materialized(self, nbytes: int) -> None:
        with self._lock:
            self._bump(bytes_materialized=nbytes)

    @property
    def stats(self) -> ArenaStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return ArenaStats(**self._counts)

    @staticmethod
    def _unlink(segment: _Segment) -> None:
        """Unlink a segment, tolerating pinned buffers and double unlink.

        ``close()`` raises ``BufferError`` while an exported NumPy view
        pins the mmap; the name must still leave ``/dev/shm``, so unlink
        happens regardless and the mapping dies with its last reference.
        """
        try:
            segment.shm.close()
        except BufferError:  # a leaked view still pins the buffer
            pass
        try:
            segment.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def close(self) -> None:
        """Unlink every pooled segment; idempotent.

        Outstanding leases keep their mappings usable (POSIX unlink only
        removes the name), but their release becomes a no-op recycle.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments = list(self._segments)
            self._segments.clear()
            self._free.clear()
            self._resident.clear()
        for segment in segments:
            self._unlink(segment)

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
