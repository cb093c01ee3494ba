"""Tests for repro.runtime.ingest: coalescing, backpressure, async APIs.

Timing-sensitive cases gate the service with an event-controlled blur so
the queue state is deterministic rather than racy.
"""

import asyncio
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
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
from repro.tonemap.gaussian import separable_blur
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


def gated_params():
    """Params whose blur blocks until the returned event is set."""
    gate = threading.Event()

    def slow_blur(plane, kernel):
        gate.wait(timeout=30)
        return separable_blur(plane, kernel)

    return ToneMapParams(sigma=2.0, radius=6, blur_fn=slow_blur), gate


class TestCoalescing:
    def test_outputs_match_batch_mapper(self):
        images = scenes(5)
        with ToneMapService(PARAMS, batch_size=2) as service:
            with ToneMapIngestor(service, max_delay_ms=20) as ingestor:
                outputs = ingestor.map_many(images)
        expected = BatchToneMapper(PARAMS).map(images)
        for got, want in zip(outputs, expected):
            np.testing.assert_array_equal(got.pixels, want.pixels)

    def test_partial_batch_flushes_at_deadline(self):
        # One image with batch_size 4 can only complete via the deadline.
        with ToneMapService(PARAMS, batch_size=4) as service:
            with ToneMapIngestor(service, max_delay_ms=5) as ingestor:
                future = ingestor.submit(scenes(1)[0])
                output = future.result(timeout=30)
        assert output.pixels.shape == (24, 24, 3)

    def test_zero_delay_degrades_to_submit_one_run_one(self):
        images = scenes(3)
        with ToneMapService(PARAMS, batch_size=8) as service:
            with ToneMapIngestor(service, max_delay_ms=0) as ingestor:
                outputs = ingestor.map_many(images)
        assert len(outputs) == 3
        assert service.stats.batches >= 1

    def test_mixed_shape_storm(self):
        # Interleaved shapes must coalesce per shape and all complete.
        images = []
        for i in range(4):
            images.extend(scenes(1, size=16, base=i))
            images.extend(scenes(1, size=24, base=40 + i))
            images.extend(scenes(1, size=32, base=80 + i))
        with ToneMapService(PARAMS, batch_size=3) as service:
            with ToneMapIngestor(
                service, max_delay_ms=2, queue_limit=64
            ) as ingestor:
                outputs = ingestor.map_many(images)
                stats = ingestor.stats
        single = ToneMapper(PARAMS)
        assert stats.images == len(images)
        for image, output in zip(images, outputs):
            assert output.pixels.shape == image.pixels.shape
            np.testing.assert_allclose(
                output.pixels, single.run(image).output.pixels, atol=1e-5
            )

    def test_full_bucket_flushes_before_deadline(self):
        images = scenes(4)
        with ToneMapService(PARAMS, batch_size=4) as service:
            # Deadline far away: only a full bucket can flush this fast.
            with ToneMapIngestor(service, max_delay_ms=60_000) as ingestor:
                futures = [ingestor.submit(image) for image in images]
                for future in futures:
                    future.result(timeout=30)
        assert service.stats.batches == 1


class TestBackpressure:
    def test_reject_policy_raises_and_counts(self):
        params, gate = gated_params()
        with ToneMapService(params, batch_size=1, max_workers=1) as service:
            with ToneMapIngestor(
                service, max_delay_ms=0, queue_limit=2, policy="reject"
            ) as ingestor:
                futures = [ingestor.submit(img) for img in scenes(2)]
                with pytest.raises(ServiceOverloadedError):
                    ingestor.submit(scenes(1)[0])
                assert ingestor.stats.rejected == 1
                gate.set()
                for future in futures:
                    assert future.result(timeout=30) is not None

    def test_shed_oldest_policy_drops_oldest_waiting(self):
        params, gate = gated_params()
        with ToneMapService(params, batch_size=8, max_workers=1) as service:
            # Long deadline: submissions park in the bucket, undispatched.
            ingestor = ToneMapIngestor(
                service,
                max_delay_ms=60_000,
                queue_limit=2,
                policy=BackpressurePolicy.SHED_OLDEST,
            )
            first = ingestor.submit(scenes(1, base=0)[0])
            second = ingestor.submit(scenes(1, base=1)[0])
            third = ingestor.submit(scenes(1, base=2)[0])  # sheds `first`
            assert ingestor.stats.shed == 1
            with pytest.raises(ServiceOverloadedError):
                first.result(timeout=5)
            gate.set()
            ingestor.close()
            assert second.result(timeout=30) is not None
            assert third.result(timeout=30) is not None

    def test_block_policy_waits_for_capacity(self):
        params, gate = gated_params()
        with ToneMapService(params, batch_size=1, max_workers=1) as service:
            with ToneMapIngestor(
                service, max_delay_ms=0, queue_limit=1, policy="block"
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

    def test_queue_peak_tracks_high_water_mark(self):
        params, gate = gated_params()
        with ToneMapService(params, batch_size=8, max_workers=1) as service:
            ingestor = ToneMapIngestor(
                service, max_delay_ms=60_000, queue_limit=8
            )
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
    def test_close_resolves_in_flight_futures(self):
        params, gate = gated_params()
        service = ToneMapService(params, batch_size=2, max_workers=2)
        ingestor = ToneMapIngestor(service, max_delay_ms=60_000)
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

    def test_cancelled_future_does_not_starve_batchmates(self):
        # Cancelling one pending future must not prevent the rest of its
        # coalesced batch from resolving (set_result on a cancelled future
        # raises InvalidStateError, which _complete must tolerate).
        params, gate = gated_params()
        with ToneMapService(params, batch_size=2, max_workers=1) as service:
            ingestor = ToneMapIngestor(service, max_delay_ms=60_000)
            victim = ingestor.submit(scenes(1, base=0)[0])
            survivor = ingestor.submit(scenes(1, base=1)[0])
            assert victim.cancel()
            gate.set()
            ingestor.close()
            assert survivor.result(timeout=30) is not None
            assert victim.cancelled()

    def test_futures_resolved_when_close_returns(self):
        # close()'s contract: nothing in flight implies every future
        # handed out earlier has already resolved.
        images = scenes(6)
        with ToneMapService(PARAMS, batch_size=2) as service:
            ingestor = ToneMapIngestor(service, max_delay_ms=1)
            futures = [ingestor.submit(image) for image in images]
            ingestor.close()
            assert all(future.done() for future in futures)

    def test_errors_propagate_to_futures(self):
        def broken_blur(plane, kernel):
            raise ValueError("boom")

        params = ToneMapParams(sigma=2.0, radius=6, blur_fn=broken_blur)
        with ToneMapService(params, batch_size=2) as service:
            with ToneMapIngestor(service, max_delay_ms=0) as ingestor:
                future = ingestor.submit(scenes(1)[0])
                with pytest.raises(ValueError):
                    future.result(timeout=30)


class TestDropCallbacks:
    """A dropped frame's future settles after the ingestor lock is
    released, so its done-callbacks may call back into the ingestor.

    Regression: each drop path settled under the lock, and a callback
    that read ``stats`` deadlocked the thread that dropped the frame.
    A wedged ingestor cannot be closed, so each test fails first.
    """

    def test_shed_oldest_victim_callback_reads_stats(
        self, assert_ledger_closed
    ):
        with ToneMapService(PARAMS, batch_size=8) as service:
            ingestor = ToneMapIngestor(
                service, max_delay_ms=60_000, queue_limit=1,
                policy="shed-oldest",
            )
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
            ingestor.close()
            assert admitted[0].result(timeout=30) is not None
            assert_ledger_closed(ingestor.stats)

    def test_expired_frame_callback_reads_stats(self, assert_ledger_closed):
        clock = FakeClock(start=100.0)
        with ToneMapService(PARAMS, batch_size=8) as service:
            ingestor = ToneMapIngestor(
                service, max_delay_ms=60_000, clock=clock
            )
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
            ingestor.close()
            assert_ledger_closed(ingestor.stats)

    def test_shed_storm_from_many_threads_frees_every_slot(
        self, assert_ledger_closed
    ):
        # Six submitters shed each other's frames (nothing dispatches
        # before close), and every victim's slot is freed after the lock
        # was released and retaken: a lost update would leave a frame
        # "in flight" (close would hang) or open the ledger.
        images = scenes(8, size=8)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ToneMapService(PARAMS, batch_size=64) as service:
                ingestor = ToneMapIngestor(
                    service, max_delay_ms=60_000, queue_limit=3,
                    policy="shed-oldest",
                )

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
                closer = threading.Thread(target=ingestor.close, daemon=True)
                closer.start()
                closer.join(timeout=30)
                assert not closer.is_alive(), "close() waits on a lost slot"
                stats = ingestor.stats
                assert stats.queue_depth == 0
                assert sum(t.submitted for t in stats.tenants) == 240
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
                ToneMapIngestor(service, max_delay_ms=-1)
            with pytest.raises(ToneMapError):
                ToneMapIngestor(service, queue_limit=0)
            with pytest.raises(ValueError):
                ToneMapIngestor(service, policy="drop-newest")


class TestAsyncAPI:
    def test_submit_async_returns_output(self):
        images = scenes(4)

        async def main():
            with ToneMapService(PARAMS, batch_size=2) as service:
                with ToneMapIngestor(service, max_delay_ms=5) as ingestor:
                    return await asyncio.gather(
                        *[ingestor.submit_async(img) for img in images]
                    )

        outputs = asyncio.run(main())
        expected = BatchToneMapper(PARAMS).map(images)
        for got, want in zip(outputs, expected):
            np.testing.assert_array_equal(got.pixels, want.pixels)

    def test_submit_async_propagates_overload(self):
        params, gate = gated_params()

        async def main():
            with ToneMapService(params, batch_size=1, max_workers=1) as service:
                ingestor = ToneMapIngestor(
                    service, max_delay_ms=0, queue_limit=1, policy="reject"
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
            with ToneMapIngestor(service, max_delay_ms=5) as ingestor:
                ingestor.map_many(scenes(4, size=16))
            stats = service.pool.data_plane_stats
        assert stats.frames == 4
        assert stats.arena.bytes_copied_in == 0
        assert stats.arena.bytes_materialized == stats.bytes_served
        assert stats.arena.leases_active == 0

    def test_removed_keywords_raise_type_error(self):
        with ToneMapService(PARAMS, batch_size=2) as service:
            with pytest.raises(TypeError):
                ToneMapIngestor(service, zero_copy=True)
        with pytest.raises(TypeError):
            BatchToneMapper(PARAMS, faults=FaultPlan())

    def test_outputs_bit_identical_to_batch_mapper(self):
        images = scenes(5)
        with ToneMapService(PARAMS, batch_size=2, shards=2) as service:
            with ToneMapIngestor(service, max_delay_ms=20) as ingestor:
                outputs = ingestor.map_many(images)
        expected = BatchToneMapper(PARAMS).map(images)
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
            with ToneMapIngestor(service, max_delay_ms=2) as ingestor:
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
            with ToneMapIngestor(service, max_delay_ms=5) as ingestor:
                ingestor.map_many(images)
            stats = service.pool.data_plane_stats
        # Frames entered shared memory at submit() time; the only
        # parent-side copy is the per-batch output materialize (the
        # futures safety fallback).
        assert stats.arena.bytes_copied_in == 0
        assert stats.arena.bytes_materialized == stats.bytes_served

    def test_shed_oldest_compacts_arena_slots(self):
        # With a huge deadline and batch_size 4, three submissions park in
        # one zero-copy bucket; queue_limit 3 makes the fourth shed the
        # oldest.  The survivors' frames must come back intact (the shed
        # compaction moves the top slot's frame into the hole).
        images = scenes(4, size=16)
        with ToneMapService(PARAMS, batch_size=4, shards=1) as service:
            ingestor = ToneMapIngestor(
                service,
                max_delay_ms=60_000,
                queue_limit=3,
                policy=BackpressurePolicy.SHED_OLDEST,
            )
            futures = [ingestor.submit(image) for image in images]
            assert ingestor.stats.shed == 1
            ingestor.close()
            with pytest.raises(ServiceOverloadedError):
                futures[0].result(timeout=5)
            expected = BatchToneMapper(PARAMS).map(images)
            for future, want in zip(futures[1:], expected[1:]):
                got = future.result(timeout=30)
                np.testing.assert_array_equal(got.pixels, want.pixels)

    def test_shed_to_empty_bucket_releases_lease(self):
        # Shedding the only occupant of a bucket must release its arena
        # stack, not strand it.
        images = scenes(2, size=16)
        with ToneMapService(PARAMS, batch_size=4, shards=1) as service:
            ingestor = ToneMapIngestor(
                service,
                max_delay_ms=60_000,
                queue_limit=1,
                policy=BackpressurePolicy.SHED_OLDEST,
            )
            first = ingestor.submit(images[0])
            second = ingestor.submit(images[1])  # sheds first (sole occupant)
            assert ingestor.stats.shed == 1
            ingestor.close()
            with pytest.raises(ServiceOverloadedError):
                first.result(timeout=5)
            assert second.result(timeout=30) is not None
            assert service.pool.arena.stats.leases_active == 0

    def test_full_bucket_rotates_immediately(self):
        # A bucket sealing at batch_size must dispatch without waiting for
        # the deadline, and a following submission starts a fresh stack.
        images = scenes(5, size=16)
        with ToneMapService(PARAMS, batch_size=2, shards=1) as service:
            with ToneMapIngestor(service, max_delay_ms=60_000) as ingestor:
                futures = [ingestor.submit(image) for image in images[:4]]
                for future in futures:
                    assert future.result(timeout=30) is not None
                # Partial fifth image flushes at close.
                last = ingestor.submit(images[4])
            assert last.result(timeout=30) is not None
        assert service.stats.batches == 3

    def test_in_process_outputs_bit_identical_to_batch_mapper(self):
        images = scenes(3)
        with ToneMapService(PARAMS, batch_size=2) as service:
            with ToneMapIngestor(service, max_delay_ms=5) as ingestor:
                outputs = ingestor.map_many(images)
        expected = BatchToneMapper(PARAMS).map(images)
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
