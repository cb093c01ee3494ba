"""Tests for repro.runtime.shard: process sharding over shared memory.

Every correctness assertion is bit-identity against
:class:`~repro.runtime.batch.BatchToneMapper` — the sharded backend
re-runs the same stack code, so "close" is never good enough.  Pools are kept small (1–3 workers) to stay fast on CI runners.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ToneMapError
from repro.image.synthetic import SceneParams, make_scene
from repro.runtime import BatchToneMapper, ShardPool, ToneMapService
from repro.runtime.shard import _run_slab, _slab_bounds
from repro.tonemap.fixed_blur import FixedBlurConfig, make_fixed_blur_fn
from repro.tonemap.pipeline import ToneMapParams

PARAMS = ToneMapParams(sigma=2.0, radius=6)


def scenes(count, size=24, color=True, base=100):
    return [
        make_scene(
            "window_interior",
            SceneParams(height=size, width=size, seed=base + i, color=color),
        )
        for i in range(count)
    ]


class TestSlabBounds:
    def test_even_split(self):
        assert _slab_bounds(8, 2) == [(0, 4), (4, 8)]

    def test_remainder_spread_over_leading_slabs(self):
        assert _slab_bounds(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_more_shards_than_images(self):
        assert _slab_bounds(2, 5) == [(0, 1), (1, 2)]

    def test_bounds_partition_exactly(self):
        for count in (1, 5, 16):
            for shards in (1, 2, 3, 7):
                bounds = _slab_bounds(count, shards)
                assert bounds[0][0] == 0 and bounds[-1][1] == count
                for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                    assert hi == lo


@pytest.fixture(scope="module")
def float_pool():
    with ShardPool(PARAMS, shards=2) as pool:
        yield pool


class TestShardPool:
    @pytest.mark.parametrize("color", [True, False], ids=["rgb", "gray"])
    def test_bit_identical_to_batch_mapper(self, float_pool, color):
        images = scenes(5, color=color)
        got = float_pool.run_batch(images)
        want = BatchToneMapper(PARAMS).map(images)
        assert [o.name for o in got] == [o.name for o in want]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.pixels, w.pixels)

    def test_fixed_config_bit_identical(self):
        images = scenes(4)
        params = replace(PARAMS, blur_fn=make_fixed_blur_fn(FixedBlurConfig()))
        with ShardPool(params, shards=3) as pool:
            got = pool.run_batch(images)
        reference = BatchToneMapper(params).map(images)
        for g, w in zip(got, reference):
            np.testing.assert_array_equal(g.pixels, w.pixels)

    def test_more_shards_than_images(self, float_pool):
        # 1 image across a 2-worker pool: one slab, one worker idle.
        images = scenes(1)
        got = float_pool.run_batch(images)
        want = BatchToneMapper(PARAMS).map(images)
        np.testing.assert_array_equal(got[0].pixels, want[0].pixels)

    def test_run_stack_roundtrip(self, float_pool):
        stack = np.stack([im.pixels for im in scenes(3, color=False)])
        got = float_pool.run_stack(stack)
        assert got.dtype == np.float32
        want = BatchToneMapper(PARAMS).run_stack(stack).astype(np.float32)
        np.testing.assert_array_equal(got, want)

    def test_blur_closure_rejected(self):
        # Refused at construction, before a forkserver respawn would
        # need to pickle it.
        params = ToneMapParams(blur_fn=lambda plane, kernel: plane)
        with pytest.raises(ToneMapError, match="must pickle"):
            ShardPool(params, shards=2)

    def test_invalid_shards_rejected(self):
        with pytest.raises(ToneMapError):
            ShardPool(PARAMS, shards=0)

    def test_empty_batch_rejected(self, float_pool):
        with pytest.raises(ToneMapError):
            float_pool.run_batch([])

    def test_mixed_shapes_rejected(self, float_pool):
        with pytest.raises(ToneMapError):
            float_pool.run_batch(scenes(1, size=16) + scenes(1, size=32))

    def test_non_image_rejected(self, float_pool):
        with pytest.raises(ToneMapError):
            float_pool.run_batch([np.zeros((8, 8))])

    def test_bad_stack_rank_rejected(self, float_pool):
        with pytest.raises(ToneMapError):
            float_pool.run_stack(np.zeros((8, 8)))


class TestWorkerPids:
    """``worker_pids()`` is an operational probe: it must never raise.

    The regression here: reading ``self._executor._processes`` without
    a snapshot raced worker respawn (the executor reference is swapped
    mid-``_respawn``) and pool shutdown (a shut-down executor tears its
    process dict down), surfacing ``AttributeError`` / ``RuntimeError``
    from a pure introspection call.
    """

    def test_live_pool_reports_worker_pids(self, float_pool):
        pids = float_pool.worker_pids()
        assert len(pids) == 2
        assert all(isinstance(pid, int) and pid > 0 for pid in pids)

    def test_closed_pool_returns_empty_list(self):
        pool = ShardPool(PARAMS, shards=1)
        pool.run_stack(np.zeros((1, 8, 8), dtype=np.float32))
        pool.close()
        assert pool.worker_pids() == []

    def test_concurrent_reads_survive_kill_and_respawn(self, wait_for_corpse):
        import signal
        import threading

        stack = np.random.default_rng(0).random(
            (2, 16, 16), dtype=np.float32
        )
        errors = []
        stop = threading.Event()

        def hammer(pool):
            while not stop.is_set():
                try:
                    for pid in pool.worker_pids():
                        assert isinstance(pid, int)
                except Exception as exc:  # the regression: any raise
                    errors.append(exc)
                    return

        with ShardPool(PARAMS, shards=2) as pool:
            pool.run_stack(stack)  # warm: workers up, pids live
            threads = [
                threading.Thread(target=hammer, args=(pool,))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            try:
                # Kill a worker mid-hammer; the next batch forces the
                # pool through crash detection and executor respawn
                # while worker_pids() readers race both transitions.
                os.kill(pool.worker_pids()[0], signal.SIGKILL)
                wait_for_corpse(pool)
                pool.run_stack(stack)
                assert pool.worker_respawns >= 1
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
        # Readers also race close() itself (the with-exit above).
        assert pool.worker_pids() == []
        assert not errors, f"worker_pids() raised: {errors[0]!r}"


class TestZeroCopyDataPlane:
    def test_zero_copy_matches_copy_path_bit_for_bit(self, float_pool):
        stack = np.stack([im.pixels for im in scenes(4, color=False)])
        copied = float_pool.run_stack(stack)
        lease = float_pool.run_stack(stack, zero_copy=True)
        try:
            np.testing.assert_array_equal(lease.array, copied)
        finally:
            lease.release()
        want = BatchToneMapper(PARAMS).run_stack(stack).astype(np.float32)
        np.testing.assert_array_equal(copied, want)

    def test_run_leased_roundtrip(self, float_pool):
        stack = np.stack([im.pixels for im in scenes(3)])
        in_lease = float_pool.lease_input(stack.shape)
        try:
            in_lease.array[:] = stack
            out_lease = float_pool.run_leased(in_lease)
        finally:
            in_lease.release()
        want = BatchToneMapper(PARAMS).run_stack(stack).astype(np.float32)
        try:
            np.testing.assert_array_equal(out_lease.array, want)
        finally:
            out_lease.release()

    def test_partial_stack_count(self, float_pool):
        stack = np.stack([im.pixels for im in scenes(4, color=False)])
        in_lease = float_pool.lease_input(stack.shape)
        try:
            in_lease.array[:2] = stack[:2]
            out = float_pool.run_leased(in_lease, count=2).materialize()
        finally:
            in_lease.release()
        want = (
            BatchToneMapper(PARAMS).run_stack(stack[:2]).astype(np.float32)
        )
        np.testing.assert_array_equal(out, want)

    def test_invalid_count_rejected(self, float_pool):
        in_lease = float_pool.lease_input((2, 16, 16))
        try:
            with pytest.raises(ToneMapError):
                float_pool.run_leased(in_lease, count=3)
            with pytest.raises(ToneMapError):
                float_pool.run_leased(in_lease, count=0)
        finally:
            in_lease.release()

    def test_released_lease_rejected(self, float_pool):
        in_lease = float_pool.lease_input((2, 16, 16))
        in_lease.release()
        with pytest.raises(ToneMapError):
            float_pool.run_leased(in_lease)

    def test_steady_state_allocates_nothing(self, float_pool):
        stack = np.stack([im.pixels for im in scenes(3, color=False)])
        float_pool.run_stack(stack)  # warm the size class
        before = float_pool.data_plane_stats
        for _ in range(4):
            float_pool.run_stack(stack)
        after = float_pool.data_plane_stats
        assert (
            after.arena.segments_created == before.arena.segments_created
        )
        assert after.arena.reuses > before.arena.reuses
        assert after.batches == before.batches + 4

    def test_copy_counters_track_staging(self):
        stack = np.stack([im.pixels for im in scenes(2, color=False)])
        with ShardPool(PARAMS, shards=1) as pool:
            pool.run_stack(stack)
            stats = pool.data_plane_stats
            # run_stack stages once in and once (materialize) out.
            assert stats.arena.bytes_copied_in == stack.nbytes
            assert stats.arena.bytes_materialized == stack.nbytes
            assert stats.copies_per_frame == pytest.approx(2.0)
            # The leased path adds nothing.
            in_lease = pool.lease_input(stack.shape)
            in_lease.array[:] = stack
            pool.run_leased(in_lease).release()
            in_lease.release()
            assert (
                pool.data_plane_stats.bytes_staged == stats.bytes_staged
            )

    def test_worker_error_mid_flight_recovers(self, float_pool):
        # A worker raising (bad segment name) must not poison the pool or
        # leak leases; the next batch runs normally.
        future = float_pool._executor.submit(
            _run_slab, "psm_does_not_exist", "psm_nor_this",
            (1, 8, 8), 0, 1, False, False,
        )
        with pytest.raises(FileNotFoundError):
            future.result()
        stack = np.stack([im.pixels for im in scenes(2, color=False)])
        want = BatchToneMapper(PARAMS).run_stack(stack).astype(np.float32)
        np.testing.assert_array_equal(float_pool.run_stack(stack), want)
        assert float_pool.arena.stats.leases_active == 0

    def test_failed_batch_releases_leases(self, float_pool):
        # Force the dispatch itself to fail: a released input lease is
        # rejected before any worker runs, and the output lease (had one
        # been taken) must not stay checked out.
        active_before = float_pool.arena.stats.leases_active
        lease = float_pool.lease_input((2, 16, 16))
        lease.release()
        with pytest.raises(ToneMapError):
            float_pool.run_leased(lease)
        assert float_pool.arena.stats.leases_active == active_before


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)
class TestShmLeakCheck:
    def test_no_segments_leaked_across_pool_lifetime(self):
        def names():
            return {
                n for n in os.listdir("/dev/shm") if n.startswith("psm_")
            }

        before = names()
        with ShardPool(PARAMS, shards=2) as pool:
            stack = np.stack([im.pixels for im in scenes(3, color=False)])
            pool.run_stack(stack)
            # Error path: a failing slab must not strand segments either.
            future = pool._executor.submit(
                _run_slab, "psm_missing", "psm_missing_too",
                (1, 8, 8), 0, 1, False, False,
            )
            with pytest.raises(FileNotFoundError):
                future.result()
            pool.run_stack(stack)
            assert names() - before  # arena segments exist while open
        assert names() - before == set(), "pool close leaked /dev/shm"


class TestServiceSharding:
    def test_sharded_service_matches_local(self):
        images = scenes(3, size=16) + scenes(3, size=24) + scenes(2, size=16)
        with ToneMapService(PARAMS, batch_size=2, shards=2) as sharded:
            got = sharded.map_many(images)
            stats = sharded.stats
        mapper = BatchToneMapper(PARAMS)
        want = [mapper.map([image])[0] for image in images]
        assert stats.images == len(images)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.pixels, w.pixels)

    def test_sharded_fixed_service_matches_local(self):
        images = scenes(4, size=16)
        params = replace(PARAMS, blur_fn=make_fixed_blur_fn())
        with ToneMapService(params, batch_size=2, shards=2) as sharded:
            got = sharded.map_many(images)
        want = BatchToneMapper(params).map(images)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.pixels, w.pixels)

    def test_shards_with_blur_closure_rejected(self):
        params = ToneMapParams(blur_fn=lambda plane, kernel: plane)
        with pytest.raises(ToneMapError, match="must pickle"):
            ToneMapService(params, shards=2)
