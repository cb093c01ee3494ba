"""Tests for repro.runtime.ingest: dispatch, backpressure, async APIs.

The ingestor dispatches whenever a batch slot is idle, so a case that
needs frames to stay queued first occupies the one slot of a
``max_workers=1`` service with a gated blur (the ``gated_blur``
fixture): the queue state is then deterministic rather than racy.
"""

import asyncio
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    ImageError,
    ServiceOverloadedError,
    ToneMapError,
)
from repro.image.synthetic import SceneParams, make_scene
from repro.runtime import (
    BackpressurePolicy,
    BatchToneMapper,
    FakeClock,
    FaultPlan,
    ToneMapIngestor,
    ToneMapService,
)
from repro.tonemap.pipeline import ToneMapParams, ToneMapper

PARAMS = ToneMapParams(sigma=2.0, radius=6)


def scenes(count, size=24, base=100):
    return [
        make_scene(
            "window_interior",
            SceneParams(height=size, width=size, seed=base + i),
        )
        for i in range(count)
    ]


def record_batches(service):
    """Record the frame count of every batch the service admits."""
    counts = []
    submit_stack = service.submit_stack

    def recording(lease, count, names, **kwargs):
        counts.append(count)
        return submit_stack(lease, count, names, **kwargs)

    service.submit_stack = recording
    return counts


class TestDispatchRule:
    def test_lone_frame_dispatches_on_an_idle_slot(
        self, assert_ledger_closed
    ):
        # No timer: a frame on an idle service leaves at once, alone,
        # although its batch has room for three more and time never moves.
        with ToneMapService(PARAMS, batch_size=4) as service:
            with ToneMapIngestor(service, clock=FakeClock()) as ingestor:
                output = ingestor.submit(scenes(1)[0]).result(timeout=30)
                assert output.pixels.shape == (24, 24, 3)
            assert service.stats.batches == 1
            assert_ledger_closed(ingestor.stats)

    def test_frames_behind_a_busy_slot_leave_as_one_batch(
        self, gated_blur, assert_ledger_closed
    ):
        # Frames that arrive while the one slot is busy wait, then leave
        # in batches of up to batch_size: batches grow with load.
        params, entered, gate = gated_blur
        with ToneMapService(params, batch_size=4, max_workers=1) as service:
            counts = record_batches(service)
            ingestor = ToneMapIngestor(service, clock=FakeClock())
            blocker = ingestor.submit(scenes(1, base=0)[0])
            assert entered.wait(timeout=30)
            waiting = [ingestor.submit(img) for img in scenes(6, base=10)]
            assert counts == [1]  # nothing else left while the slot was busy
            gate.set()
            ingestor.close()
            assert blocker.result(timeout=0) is not None
            assert all(f.result(timeout=0) is not None for f in waiting)
            assert counts == [1, 4, 2]
            assert_ledger_closed(ingestor.stats)

    def test_expired_frame_sheds_while_every_slot_is_busy(
        self, gated_blur, assert_ledger_closed
    ):
        # The scheduler sleeps until the nearest frame deadline even when
        # no slot is free, so a queued frame fails on time rather than
        # when the batch ahead of it finishes.
        params, entered, gate = gated_blur
        with ToneMapService(params, batch_size=4, max_workers=1) as service:
            ingestor = ToneMapIngestor(service)
            blocker = ingestor.submit(scenes(1, base=0)[0])
            assert entered.wait(timeout=30)
            late = ingestor.submit(scenes(1, base=1)[0], deadline_ms=50)
            with pytest.raises(DeadlineExceededError):
                late.result(timeout=10)
            assert not blocker.done()  # the slot stayed busy throughout
            gate.set()
            ingestor.close()
            assert blocker.result(timeout=0) is not None
            assert ingestor.stats.reliability.deadline_shed == 1
            assert_ledger_closed(ingestor.stats)


class TestBatchSlots:
    def test_in_process_slots_are_the_thread_pool_width(self):
        with ToneMapService(PARAMS, max_workers=3) as service:
            assert service.batch_slots == 3

    def test_shard_pool_is_one_slot(self):
        # Every batch already fans out over all the pool's workers.
        with ToneMapService(PARAMS, shards=2, max_workers=4) as service:
            assert service.batch_slots == 1


class TestCoalescing:
    def test_outputs_match_batch_mapper(self):
        images = scenes(5)
        with ToneMapService(PARAMS, batch_size=2) as service:
            with ToneMapIngestor(service) as ingestor:
                outputs = ingestor.map_many(images)
        expected = BatchToneMapper(PARAMS).run(images).outputs
        for got, want in zip(outputs, expected):
            np.testing.assert_array_equal(got.pixels, want.pixels)

    def test_mixed_shape_storm(self):
        # Interleaved shapes must coalesce per shape and all complete.
        images = []
        for i in range(4):
            images.extend(scenes(1, size=16, base=i))
            images.extend(scenes(1, size=24, base=40 + i))
            images.extend(scenes(1, size=32, base=80 + i))
        with ToneMapService(PARAMS, batch_size=3) as service:
            with ToneMapIngestor(service, queue_limit=64) as ingestor:
                outputs = ingestor.map_many(images)
                stats = ingestor.stats
        single = ToneMapper(PARAMS)
        assert stats.images == len(images)
        for image, output in zip(images, outputs):
            assert output.pixels.shape == image.pixels.shape
            np.testing.assert_allclose(
                output.pixels, single.run(image).output.pixels, atol=1e-5
            )


class TestBackpressure:
    def test_reject_policy_raises_and_counts(self, gated_blur):
        params, entered, gate = gated_blur
        with ToneMapService(params, batch_size=1, max_workers=1) as service:
            with ToneMapIngestor(
                service, queue_limit=2, policy="reject"
            ) as ingestor:
                futures = [ingestor.submit(img) for img in scenes(2)]
                with pytest.raises(ServiceOverloadedError):
                    ingestor.submit(scenes(1)[0])
                assert ingestor.stats.rejected == 1
                gate.set()
                for future in futures:
                    assert future.result(timeout=30) is not None

    def test_shed_oldest_policy_drops_oldest_waiting(
        self, gated_blur, assert_ledger_closed
    ):
        params, entered, gate = gated_blur
        with ToneMapService(params, batch_size=8, max_workers=1) as service:
            ingestor = ToneMapIngestor(
                service,
                queue_limit=3,
                policy=BackpressurePolicy.SHED_OLDEST,
            )
            # The blocker holds the one slot: later submissions wait in
            # the queue, undispatched.
            blocker = ingestor.submit(scenes(1, base=9)[0])
            assert entered.wait(timeout=30)
            first = ingestor.submit(scenes(1, base=0)[0])
            second = ingestor.submit(scenes(1, base=1)[0])
            third = ingestor.submit(scenes(1, base=2)[0])  # sheds `first`
            assert ingestor.stats.shed == 1
            with pytest.raises(ServiceOverloadedError):
                first.result(timeout=5)
            gate.set()
            ingestor.close()
            assert blocker.result(timeout=30) is not None
            assert second.result(timeout=30) is not None
            assert third.result(timeout=30) is not None
            assert_ledger_closed(ingestor.stats)

    def test_block_policy_waits_for_capacity(self, gated_blur):
        params, entered, gate = gated_blur
        with ToneMapService(params, batch_size=1, max_workers=1) as service:
            with ToneMapIngestor(
                service, queue_limit=1, policy="block"
            ) as ingestor:
                first = ingestor.submit(scenes(1)[0])
                unblocked_at = []

                def late_submit():
                    future = ingestor.submit(scenes(1, base=9)[0])
                    unblocked_at.append(time.perf_counter())
                    future.result(timeout=30)

                thread = threading.Thread(target=late_submit)
                thread.start()
                time.sleep(0.1)
                # Still blocked: the queue slot is held by `first`.
                assert not unblocked_at
                released_at = time.perf_counter()
                gate.set()
                thread.join(timeout=30)
                assert unblocked_at and unblocked_at[0] >= released_at
                assert first.result(timeout=30) is not None

    def test_queue_peak_tracks_high_water_mark(self, gated_blur):
        params, entered, gate = gated_blur
        with ToneMapService(params, batch_size=8, max_workers=1) as service:
            ingestor = ToneMapIngestor(service, queue_limit=8)
            futures = [ingestor.submit(img) for img in scenes(5)]
            assert ingestor.stats.queue_depth == 5
            assert ingestor.stats.queue_peak == 5
            gate.set()
            ingestor.close()
            for future in futures:
                future.result(timeout=30)
            assert ingestor.stats.queue_depth == 0
            assert ingestor.stats.queue_peak == 5


class TestLifecycle:
    def test_close_resolves_in_flight_futures(self, gated_blur):
        params, entered, gate = gated_blur
        service = ToneMapService(params, batch_size=2, max_workers=2)
        ingestor = ToneMapIngestor(service)
        futures = [ingestor.submit(img) for img in scenes(5)]
        closer = threading.Thread(target=ingestor.close)
        closer.start()
        gate.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        for future in futures:
            assert future.result(timeout=1) is not None
        # close() flushed everything: nothing left in flight.
        assert ingestor.stats.queue_depth == 0
        service.close()

    def test_submit_after_close_rejected(self):
        with ToneMapService(PARAMS) as service:
            ingestor = ToneMapIngestor(service)
            ingestor.close()
            with pytest.raises(ToneMapError):
                ingestor.submit(scenes(1)[0])

    def test_close_is_idempotent(self):
        with ToneMapService(PARAMS) as service:
            ingestor = ToneMapIngestor(service)
            ingestor.close()
            ingestor.close()

    def test_service_stays_open_after_ingestor_close(self):
        with ToneMapService(PARAMS, batch_size=2) as service:
            with ToneMapIngestor(service) as ingestor:
                ingestor.map_many(scenes(2))
            # The ingestor borrowed the service; it must still work.
            assert len(service.map_many(scenes(2))) == 2

    def test_cancelled_future_does_not_starve_batchmates(
        self, gated_blur, assert_ledger_closed
    ):
        # Cancelling one pending future must not prevent the rest of its
        # coalesced batch from resolving (set_result on a cancelled future
        # raises InvalidStateError, which _complete must tolerate).
        params, entered, gate = gated_blur
        with ToneMapService(params, batch_size=2, max_workers=1) as service:
            counts = record_batches(service)
            ingestor = ToneMapIngestor(service)
            blocker = ingestor.submit(scenes(1, base=9)[0])
            assert entered.wait(timeout=30)
            # Both wait behind the busy slot, so they share one batch.
            victim = ingestor.submit(scenes(1, base=0)[0])
            survivor = ingestor.submit(scenes(1, base=1)[0])
            assert victim.cancel()
            gate.set()
            ingestor.close()
            assert blocker.result(timeout=30) is not None
            assert survivor.result(timeout=30) is not None
            assert victim.cancelled()
            assert counts == [1, 2]
            assert_ledger_closed(ingestor.stats)

    def test_futures_resolved_when_close_returns(self):
        # close()'s contract: nothing in flight implies every future
        # handed out earlier has already resolved.
        images = scenes(6)
        with ToneMapService(PARAMS, batch_size=2) as service:
            ingestor = ToneMapIngestor(service)
            futures = [ingestor.submit(image) for image in images]
            ingestor.close()
            assert all(future.done() for future in futures)

    def test_errors_propagate_to_futures(self):
        def broken_blur(plane, kernel):
            raise ValueError("boom")

        params = ToneMapParams(sigma=2.0, radius=6, blur_fn=broken_blur)
        with ToneMapService(params, batch_size=2) as service:
            with ToneMapIngestor(service) as ingestor:
                future = ingestor.submit(scenes(1)[0])
                with pytest.raises(ValueError):
                    future.result(timeout=30)

    def test_failed_batch_frames_close_the_ledger(self, assert_ledger_closed):
        # A failed batch's frames end in one terminal outcome too: each
        # future holds the error and the frame counts as failed.
        def nan_blur(plane, kernel):
            out = np.array(plane, dtype=np.float64)
            out[0, 0] = np.nan
            return out

        params = ToneMapParams(sigma=2.0, radius=6, blur_fn=nan_blur)
        with ToneMapService(params, batch_size=4) as service:
            with ToneMapIngestor(service) as ingestor:
                futures = [ingestor.submit(image) for image in scenes(4)]
                for future in futures:
                    with pytest.raises(ImageError):
                        future.result(timeout=30)
            stats = ingestor.stats
        (tenant,) = stats.tenants
        assert (tenant.submitted, tenant.served, tenant.failed) == (4, 0, 4)
        assert_ledger_closed(stats)


class TestDropCallbacks:
    """A dropped frame's future settles after the ingestor lock is
    released, so its done-callbacks may call back into the ingestor.

    Regression: each drop path settled under the lock, and a callback
    that read ``stats`` deadlocked the thread that dropped the frame.
    A wedged ingestor cannot be closed, so each test fails first.
    """

    def test_shed_oldest_victim_callback_reads_stats(
        self, gated_blur, assert_ledger_closed
    ):
        params, entered, gate = gated_blur
        with ToneMapService(params, batch_size=8, max_workers=1) as service:
            ingestor = ToneMapIngestor(
                service, queue_limit=2, policy="shed-oldest"
            )
            blocker = ingestor.submit(scenes(1, base=9)[0])
            assert entered.wait(timeout=30)  # later frames stay queued
            seen, admitted = [], []
            first = ingestor.submit(scenes(1, base=0)[0])
            first.add_done_callback(
                lambda future: seen.append(ingestor.stats.shed)
            )
            submitter = threading.Thread(
                target=lambda: admitted.append(
                    ingestor.submit(scenes(1, base=1)[0])
                ),
                daemon=True,
            )
            submitter.start()
            submitter.join(timeout=5)
            assert not submitter.is_alive(), "submit wedged in a callback"
            assert seen == [1]
            with pytest.raises(ServiceOverloadedError):
                first.result(timeout=0)
            gate.set()
            ingestor.close()
            assert blocker.result(timeout=30) is not None
            assert admitted[0].result(timeout=30) is not None
            assert_ledger_closed(ingestor.stats)

    def test_expired_frame_callback_reads_stats(
        self, gated_blur, assert_ledger_closed
    ):
        params, entered, gate = gated_blur
        clock = FakeClock(start=100.0)
        with ToneMapService(params, batch_size=8, max_workers=1) as service:
            ingestor = ToneMapIngestor(service, clock=clock)
            blocker = ingestor.submit(scenes(1, base=9)[0])
            assert entered.wait(timeout=30)  # the frame below stays queued
            seen, settled = [], threading.Event()
            future = ingestor.submit(scenes(1)[0], deadline_ms=20)

            def read_stats(future):
                seen.append(ingestor.stats.reliability.deadline_shed)
                settled.set()

            future.add_done_callback(read_stats)
            clock.advance(1.0)  # the coalescer expires the frame
            assert settled.wait(timeout=5), "coalescer wedged in a callback"
            assert seen == [1]
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=0)
            gate.set()
            ingestor.close()
            assert blocker.result(timeout=30) is not None
            assert_ledger_closed(ingestor.stats)

    def test_shed_storm_from_many_threads_frees_every_slot(
        self, gated_blur, assert_ledger_closed
    ):
        # Six submitters shed each other's frames (the blocker holds the
        # one slot, so nothing else dispatches before the gate opens),
        # and every victim's slot is freed after the lock was released
        # and retaken: a lost update would leave a frame "in flight"
        # (close would hang) or open the ledger.
        params, entered, gate = gated_blur
        images = scenes(8, size=8)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ToneMapService(
                params, batch_size=64, max_workers=1
            ) as service:
                ingestor = ToneMapIngestor(
                    service, queue_limit=4, policy="shed-oldest"
                )
                blocker = ingestor.submit(scenes(1, base=9)[0], "blocker")
                assert entered.wait(timeout=30)

                def submit_many():
                    for image in images * 5:
                        ingestor.submit(image).add_done_callback(
                            lambda future: ingestor.stats
                        )

                threads = [
                    threading.Thread(target=submit_many, daemon=True)
                    for _ in range(6)
                ]
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 30
                for thread in threads:
                    thread.join(timeout=max(0.0, deadline - time.monotonic()))
                assert not any(thread.is_alive() for thread in threads)
                gate.set()
                closer = threading.Thread(target=ingestor.close, daemon=True)
                closer.start()
                closer.join(timeout=30)
                assert not closer.is_alive(), "close() waits on a lost slot"
                assert blocker.result(timeout=0) is not None
                stats = ingestor.stats
                storm = {t.tenant: t for t in stats.tenants}["default"]
                assert stats.queue_depth == 0
                assert storm.submitted == 240
                assert stats.shed == 237  # all but the last three queued
                assert_ledger_closed(stats)
        finally:
            sys.setswitchinterval(previous)


class TestValidation:
    def test_non_image_rejected(self):
        with ToneMapService(PARAMS) as service:
            with ToneMapIngestor(service) as ingestor:
                with pytest.raises(ToneMapError):
                    ingestor.submit(np.zeros((4, 4)))

    def test_bad_parameters_rejected(self):
        with ToneMapService(PARAMS) as service:
            with pytest.raises(ToneMapError):
                ToneMapIngestor(service, queue_limit=0)
            with pytest.raises(ValueError):
                ToneMapIngestor(service, policy="drop-newest")


class TestAsyncAPI:
    def test_submit_async_returns_output(self):
        images = scenes(4)

        async def main():
            with ToneMapService(PARAMS, batch_size=2) as service:
                with ToneMapIngestor(service) as ingestor:
                    return await asyncio.gather(
                        *[ingestor.submit_async(img) for img in images]
                    )

        outputs = asyncio.run(main())
        expected = BatchToneMapper(PARAMS).run(images).outputs
        for got, want in zip(outputs, expected):
            np.testing.assert_array_equal(got.pixels, want.pixels)

    def test_submit_async_propagates_overload(self, gated_blur):
        params, entered, gate = gated_blur

        async def main():
            with ToneMapService(params, batch_size=1, max_workers=1) as service:
                ingestor = ToneMapIngestor(
                    service, queue_limit=1, policy="reject"
                )
                first = asyncio.ensure_future(
                    ingestor.submit_async(scenes(1)[0])
                )
                # Let the first submission win the only queue slot.
                await asyncio.sleep(0.2)
                with pytest.raises(ServiceOverloadedError):
                    await ingestor.submit_async(scenes(1, base=5)[0])
                gate.set()
                await first
                ingestor.close()

        asyncio.run(main())


class TestZeroCopyIngest:
    """The zero-copy admission path: frames written into arena slots."""

    def test_in_process_service_ingests_zero_copy(self):
        # The in-process backend owns an arena too: frames enter it at
        # dispatch, and the only parent-side copy is the materialize.
        with ToneMapService(PARAMS, batch_size=2) as service:
            with ToneMapIngestor(service) as ingestor:
                ingestor.map_many(scenes(4, size=16))
            stats = service.pool.data_plane_stats
        assert stats.frames == 4
        assert stats.arena.bytes_copied_in == 0
        assert stats.arena.bytes_materialized == stats.bytes_served
        assert stats.arena.leases_active == 0

    def test_removed_keywords_raise_type_error(self):
        with ToneMapService(PARAMS, batch_size=2) as service:
            for removed in ("zero_copy", "max_delay_ms",
                            "max_inflight_batches"):
                with pytest.raises(TypeError):
                    ToneMapIngestor(service, **{removed: 1})
        with pytest.raises(TypeError):
            BatchToneMapper(PARAMS, faults=FaultPlan())

    def test_outputs_bit_identical_to_batch_mapper(self):
        images = scenes(5)
        with ToneMapService(PARAMS, batch_size=2, shards=2) as service:
            with ToneMapIngestor(service) as ingestor:
                outputs = ingestor.map_many(images)
        expected = BatchToneMapper(PARAMS).run(images).outputs
        for got, want in zip(outputs, expected):
            np.testing.assert_array_equal(got.pixels, want.pixels)

    def test_mixed_shape_storm_zero_copy(self):
        # Interleaved shapes: every bucket gets its own arena stack, all
        # coalesce correctly, nothing is left leased afterwards.
        images = []
        for i in range(4):
            images.extend(scenes(1, size=16, base=i))
            images.extend(scenes(1, size=24, base=40 + i))
            images.extend(scenes(1, size=32, base=80 + i))
        with ToneMapService(PARAMS, batch_size=3, shards=2) as service:
            with ToneMapIngestor(service) as ingestor:
                outputs = ingestor.map_many(images)
            arena = service.pool.arena
            assert arena.stats.leases_active == 0
        single = ToneMapper(PARAMS)
        for image, output in zip(images, outputs):
            assert output.pixels.shape == image.pixels.shape
            np.testing.assert_allclose(
                output.pixels, single.run(image).output.pixels, atol=1e-5
            )

    def test_no_staging_copies_on_the_ingest_path(self):
        images = scenes(6, size=16)
        with ToneMapService(PARAMS, batch_size=3, shards=1) as service:
            with ToneMapIngestor(service) as ingestor:
                ingestor.map_many(images)
            stats = service.pool.data_plane_stats
        # Frames entered shared memory at submit() time; the only
        # parent-side copy is the per-batch output materialize (the
        # futures safety fallback).
        assert stats.arena.bytes_copied_in == 0
        assert stats.arena.bytes_materialized == stats.bytes_served

    def test_shed_oldest_compacts_arena_slots(
        self, gated_blur, assert_ledger_closed
    ):
        # Behind the busy slot, three submissions wait for one batch of
        # 4; queue_limit 4 makes the fourth shed the oldest.  Queued
        # frames hold no arena slot, so the survivors are written into
        # the stack at dispatch and must come back intact.
        params, entered, gate = gated_blur
        images = scenes(4, size=16)
        with ToneMapService(params, batch_size=4, max_workers=1) as service:
            ingestor = ToneMapIngestor(
                service,
                queue_limit=4,
                policy=BackpressurePolicy.SHED_OLDEST,
            )
            blocker = ingestor.submit(scenes(1, base=9)[0])
            assert entered.wait(timeout=30)
            futures = [ingestor.submit(image) for image in images]
            assert ingestor.stats.shed == 1
            gate.set()
            ingestor.close()
            assert blocker.result(timeout=30) is not None
            with pytest.raises(ServiceOverloadedError):
                futures[0].result(timeout=5)
            expected = BatchToneMapper(params).run(images).outputs
            for future, want in zip(futures[1:], expected[1:]):
                got = future.result(timeout=30)
                np.testing.assert_array_equal(got.pixels, want.pixels)
            assert_ledger_closed(ingestor.stats)

    def test_shed_to_empty_bucket_releases_lease(
        self, gated_blur, assert_ledger_closed
    ):
        # Shedding the only queued frame of a shape must leave no arena
        # stack behind.
        params, entered, gate = gated_blur
        images = scenes(2, size=16)
        with ToneMapService(params, batch_size=4, max_workers=1) as service:
            ingestor = ToneMapIngestor(
                service,
                queue_limit=2,
                policy=BackpressurePolicy.SHED_OLDEST,
            )
            blocker = ingestor.submit(scenes(1, base=9)[0])
            assert entered.wait(timeout=30)
            first = ingestor.submit(images[0])
            second = ingestor.submit(images[1])  # sheds first (sole occupant)
            assert ingestor.stats.shed == 1
            gate.set()
            ingestor.close()
            assert blocker.result(timeout=30) is not None
            with pytest.raises(ServiceOverloadedError):
                first.result(timeout=5)
            assert second.result(timeout=30) is not None
            assert service.pool.arena.stats.leases_active == 0
            assert_ledger_closed(ingestor.stats)

    def test_full_bucket_rotates_immediately(
        self, gated_blur, assert_ledger_closed
    ):
        # Four frames behind the busy slot leave as two full batches of
        # 2, each in its own stack; a later lone frame starts a fresh one.
        params, entered, gate = gated_blur
        images = scenes(5, size=16)
        with ToneMapService(params, batch_size=2, max_workers=1) as service:
            counts = record_batches(service)
            with ToneMapIngestor(service) as ingestor:
                blocker = ingestor.submit(scenes(1, base=9)[0])
                assert entered.wait(timeout=30)
                futures = [ingestor.submit(image) for image in images[:4]]
                gate.set()
                for future in [blocker] + futures:
                    assert future.result(timeout=30) is not None
                last = ingestor.submit(images[4])
            assert last.result(timeout=30) is not None
            assert_ledger_closed(ingestor.stats)
        assert counts == [1, 2, 2, 1]
        assert service.stats.batches == 4
        assert service.pool.arena.stats.leases_active == 0

    def test_in_process_outputs_bit_identical_to_batch_mapper(self):
        images = scenes(3)
        with ToneMapService(PARAMS, batch_size=2) as service:
            with ToneMapIngestor(service) as ingestor:
                outputs = ingestor.map_many(images)
        expected = BatchToneMapper(PARAMS).run(images).outputs
        for got, want in zip(outputs, expected):
            np.testing.assert_array_equal(got.pixels, want.pixels)


class TestServiceAutoscaleStats:
    def test_stats_surface_active_shards(self):
        with ToneMapService(PARAMS, batch_size=2, shards=2) as service:
            assert service.stats.shards_active == 2

    def test_in_process_service_reports_zero_shards(self):
        with ToneMapService(PARAMS, batch_size=2) as service:
            service.map_many(scenes(2))
            assert service.stats.shards_active == 0
