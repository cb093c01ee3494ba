"""Tests for repro.runtime.arena: pooling, leases, hygiene.

The arena's contracts are structural (reuse, refcounts, overflow) and
hygienic (nothing left behind in /dev/shm), so the assertions here are
exact counter checks and filesystem scans, not tolerances.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.errors import ToneMapError
from repro.runtime.arena import PAGE_BYTES, ShmArena, size_class

SHM_DIR = "/dev/shm"


def shm_names():
    """Current shared-memory segment names (posixshmem default prefix)."""
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux
        pytest.skip("no /dev/shm to scan on this platform")
    return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}


class TestSizeClass:
    def test_rounds_up_to_powers_of_two(self):
        assert size_class(PAGE_BYTES + 1) == 2 * PAGE_BYTES
        assert size_class(3 * PAGE_BYTES) == 4 * PAGE_BYTES

    def test_exact_powers_stay(self):
        assert size_class(1 << 20) == 1 << 20

    def test_page_floor(self):
        assert size_class(1) == PAGE_BYTES
        assert size_class(0) == PAGE_BYTES

    def test_negative_rejected(self):
        with pytest.raises(ToneMapError):
            size_class(-1)


class TestLeaseLifecycle:
    def test_write_read_roundtrip(self):
        with ShmArena() as arena:
            lease = arena.lease_input((4, 8, 8))
            lease.array[:] = 7.0
            assert lease.array.shape == (4, 8, 8)
            assert lease.array.dtype == np.float32
            np.testing.assert_array_equal(lease.array, 7.0)
            lease.release()

    def test_release_recycles_segment(self):
        with ShmArena() as arena:
            first = arena.lease_input((2, 16, 16))
            name = first.segment_name
            first.release()
            second = arena.lease_input((2, 16, 16))
            assert second.segment_name == name
            stats = arena.stats
            assert stats.segments_created == 1
            assert stats.reuses == 1
            second.release()

    def test_double_release_raises(self):
        with ShmArena() as arena:
            lease = arena.lease_output((8, 8))
            lease.release()
            with pytest.raises(ToneMapError):
                lease.release()
            assert lease.array is None

    def test_acquire_defers_recycle_until_last_release(self):
        with ShmArena() as arena:
            lease = arena.lease_output((8, 8))
            lease.acquire()
            lease.release()
            assert lease.array is not None  # one reference still out
            assert arena.stats.leases_active == 1
            lease.release()
            assert lease.array is None
            assert arena.stats.leases_active == 0

    def test_acquire_after_release_raises(self):
        with ShmArena() as arena:
            lease = arena.lease_output((8, 8))
            lease.release()
            with pytest.raises(ToneMapError):
                lease.acquire()

    def test_materialize_copies_and_releases(self):
        with ShmArena() as arena:
            lease = arena.lease_output((3, 4))
            lease.array[:] = 2.5
            out = lease.array  # the view the copy must not alias
            copy = lease.materialize()
            assert lease.array is None
            np.testing.assert_array_equal(copy, 2.5)
            assert copy.base is None or copy.base is not out
            assert arena.stats.bytes_materialized == copy.nbytes
            with pytest.raises(ToneMapError):
                lease.materialize()

    def test_context_manager_releases(self):
        with ShmArena() as arena:
            with arena.lease_input((4, 4)) as lease:
                lease.array[:] = 1.0
            assert arena.stats.leases_active == 0


class TestPoolingAndOverflow:
    def test_inputs_and_outputs_pool_separately(self):
        with ShmArena(slots=2) as arena:
            a = arena.lease_input((16, 16))
            b = arena.lease_output((16, 16))
            assert a.segment_name != b.segment_name
            a.release()
            b.release()

    def test_overflow_creates_transient_segments(self):
        with ShmArena(slots=1) as arena:
            held = arena.lease_output((32, 32))
            overflow = arena.lease_output((32, 32))
            assert arena.stats.overflow == 1
            assert held.cacheable and not overflow.cacheable
            name = overflow.segment_name
            overflow.release()
            assert name not in shm_names()  # transient: unlinked on release
            held.release()

    def test_overflow_segments_do_not_join_the_pool(self):
        with ShmArena(slots=1) as arena:
            held = arena.lease_output((32, 32))
            arena.lease_output((32, 32)).release()
            held.release()
            # Only the pooled slab remains resident.
            assert arena.stats.pooled_segments == 1

    def test_mixed_shape_storm_bounded_by_slots(self):
        shapes = [(8, 8), (16, 16), (8, 8, 3), (32, 8), (8, 32)]
        with ShmArena(slots=2) as arena:
            for round_index in range(6):
                leases = [
                    arena.lease_input(shapes[(round_index + i) % len(shapes)])
                    for i in range(3)
                ]
                for index, lease in enumerate(leases):
                    lease.array[:] = float(index)
                for lease in leases:
                    lease.release()
            stats = arena.stats
            assert stats.leases_active == 0
            # Size classes collapse the 5 shapes into a handful of
            # segments, each reused across rounds.
            assert stats.segments_created <= 2 * len(shapes)
            assert stats.reuses > stats.segments_created

    def test_invalid_slots_rejected(self):
        with pytest.raises(ToneMapError):
            ShmArena(slots=0)

    def test_empty_shape_rejected(self):
        with ShmArena() as arena:
            with pytest.raises(ToneMapError):
                arena.lease_input((0, 8))


class TestHygiene:
    def test_close_unlinks_everything(self):
        before = shm_names()
        arena = ShmArena()
        leases = [arena.lease_input((64, 64)) for _ in range(3)]
        for lease in leases:
            lease.release()
        assert shm_names() - before  # segments existed while open
        arena.close()
        assert shm_names() - before == set()

    def test_close_unlinks_despite_pinned_view(self):
        # A leaked view makes mmap.close() raise BufferError; the name
        # must still leave /dev/shm (the kernel frees the pages when the
        # mapping dies).
        before = shm_names()
        arena = ShmArena()
        lease = arena.lease_input((16, 16))
        pinned = lease.array  # keep the buffer exported past close()
        arena.close()
        assert shm_names() - before == set()
        assert pinned.shape == (16, 16)  # mapping itself stays valid

    def test_view_outliving_close_stays_readable(self):
        # Reading a lease's view after close() used to touch unmapped
        # memory and kill the interpreter with SIGSEGV; run it in a
        # child so a regression fails this test instead of the suite.
        script = textwrap.dedent(
            """
            import gc
            import numpy as np
            from repro.runtime.arena import ShmArena

            arena = ShmArena(slots=1)
            lease = arena.lease_input((4, 64, 64), np.float32)
            view = lease.array
            view[...] = 1.0
            arena.close()
            del lease
            gc.collect()
            print(float(view[1:].sum()))
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        assert proc.stdout.strip() == str(3.0 * 64 * 64)
        assert proc.stderr == ""

    def test_pinned_segments_leak_no_descriptor(self):
        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):  # pragma: no cover - non-Linux
            pytest.skip("no /proc/self/fd to count descriptors")
        with ShmArena() as warm:  # start the resource tracker first
            warm.lease_input((8, 8)).release()
        before = len(os.listdir(fd_dir))
        arena = ShmArena()
        views = [arena.lease_input((8, 8)).array for _ in range(3)]
        arena.close()
        del views
        assert len(os.listdir(fd_dir)) == before

    def test_release_after_close_is_safe(self):
        arena = ShmArena()
        lease = arena.lease_input((8, 8))
        arena.close()
        lease.release()  # no error, no resurrection
        assert arena.stats.leases_active == 0

    def test_lease_after_close_raises(self):
        arena = ShmArena()
        arena.close()
        with pytest.raises(ToneMapError):
            arena.lease_input((8, 8))

    def test_close_is_idempotent(self):
        arena = ShmArena()
        arena.lease_input((8, 8)).release()
        arena.close()
        arena.close()
