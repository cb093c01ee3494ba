"""Tests for repro.runtime (BatchToneMapper + ToneMapService)."""

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ImageError, ToneMapError
from repro.image.hdr import HDRImage
from repro.image.synthetic import SceneParams, make_scene
from repro.runtime import BatchToneMapper, ServiceStats, ToneMapService
from repro.tonemap.fixed_blur import make_fixed_blur_fn
from repro.tonemap.pipeline import ToneMapParams, ToneMapper

PARAMS = ToneMapParams(sigma=2.0, radius=6)


def nan_blur(plane, kernel):
    """An untrusted blur that writes one NaN (module-level: it pickles)."""
    out = np.array(plane, dtype=np.float64)
    out[0, 0] = np.nan
    return out


def gated_params():
    """Params whose blur signals ``entered`` and then blocks until
    ``gate`` is set: ``(params, entered, gate)``."""
    from repro.tonemap.gaussian import separable_blur

    entered, gate = threading.Event(), threading.Event()

    def gated_blur(plane, kernel):
        entered.set()
        gate.wait(timeout=30)
        return separable_blur(plane, kernel)

    params = ToneMapParams(sigma=2.0, radius=6, blur_fn=gated_blur)
    return params, entered, gate


def scenes(count, size=32, color=True):
    return [
        make_scene(
            "window_interior",
            SceneParams(height=size, width=size, seed=100 + i, color=color),
        )
        for i in range(count)
    ]


class TestBatchToneMapper:
    @pytest.mark.parametrize("color", [True, False], ids=["rgb", "gray"])
    def test_matches_per_image_pipeline(self, color):
        images = scenes(3, color=color)
        batch = BatchToneMapper(PARAMS).run(images)
        single = ToneMapper(PARAMS)
        for image, output, mask in zip(images, batch.outputs, batch.masks):
            reference = single.run(image)
            np.testing.assert_allclose(mask, reference.mask, atol=1e-6)
            np.testing.assert_allclose(
                output.pixels, reference.output.pixels, atol=1e-5
            )

    def test_fixed_point_blur_fn_matches_per_image(self):
        params = ToneMapParams(
            sigma=2.0, radius=6, blur_fn=make_fixed_blur_fn()
        )
        images = scenes(2)
        batch = BatchToneMapper(params).run(images)
        single = ToneMapper(params)
        for image, output in zip(images, batch.outputs):
            np.testing.assert_allclose(
                output.pixels, single.run(image).output.pixels, atol=1e-5
            )

    def test_output_metadata(self):
        images = scenes(2, size=16)
        result = BatchToneMapper(PARAMS).run(images)
        assert result.pixels == 2 * 16 * 16
        assert result.masks.shape == (2, 16, 16)
        assert [o.name for o in result.outputs] == [
            f"{img.name}:tonemapped" for img in images
        ]

    def test_empty_batch_rejected(self):
        with pytest.raises(ToneMapError):
            BatchToneMapper(PARAMS).run([])

    def test_mixed_shapes_rejected(self):
        images = scenes(1, size=16) + scenes(1, size=32)
        with pytest.raises(ToneMapError):
            BatchToneMapper(PARAMS).run(images)

    def test_non_image_rejected(self):
        with pytest.raises(ToneMapError):
            BatchToneMapper(PARAMS).run([np.zeros((8, 8))])

    def test_black_image_passes_through(self):
        black = HDRImage(np.zeros((16, 16)), name="black")
        result = BatchToneMapper(PARAMS).run([black])
        np.testing.assert_array_equal(result.outputs[0].pixels, 0.0)

    def test_untrusted_blur_fn_nan_is_caught(self):
        # A user-supplied blur_fn is outside the internal finiteness
        # proof, so the mapper scans its outputs: NaN must surface as
        # ImageError, not silently adopted garbage.
        from repro.errors import ImageError

        def nan_blur(plane, kernel):
            out = np.array(plane, dtype=np.float64)
            out[0, 0] = np.nan
            return out

        params = ToneMapParams(sigma=2.0, radius=6, blur_fn=nan_blur)
        with pytest.raises(ImageError):
            BatchToneMapper(params).run(scenes(1))

    def test_trusted_fixed_blur_fn_keeps_adopt_fast_path(self):
        # The internal fixed-point closure is marked trusted_finite, so
        # its outputs are adopted (views, read-only) rather than
        # re-validated — and stay correct.
        params = ToneMapParams(sigma=2.0, radius=6,
                               blur_fn=make_fixed_blur_fn())
        outputs = BatchToneMapper(params).run(scenes(2)).outputs
        for image in outputs:
            assert image.pixels.dtype == np.float32
            assert not image.pixels.flags.writeable
            assert np.isfinite(image.pixels).all()


class TestToneMapService:
    def test_map_many_matches_batch(self):
        images = scenes(5, size=16)
        with ToneMapService(PARAMS, batch_size=2) as service:
            outputs = service.map_many(images)
        expected = BatchToneMapper(PARAMS).run(images).outputs
        for got, want in zip(outputs, expected):
            np.testing.assert_array_equal(got.pixels, want.pixels)

    def test_mixed_shapes_grouped(self):
        images = scenes(2, size=16) + scenes(2, size=24) + scenes(1, size=16)
        with ToneMapService(PARAMS, batch_size=2) as service:
            outputs = service.map_many(images)
        single = ToneMapper(PARAMS)
        assert len(outputs) == len(images)
        for image, output in zip(images, outputs):
            assert output.pixels.shape == image.pixels.shape
            np.testing.assert_allclose(
                output.pixels, single.run(image).output.pixels, atol=1e-5
            )

    def test_submit_single(self):
        image = scenes(1, size=16)[0]
        with ToneMapService(PARAMS) as service:
            lease = service.lease_input(image.pixels.shape)
            lease.array[0] = image.pixels
            future = service.submit_stack(lease, 1, [image.name])
            (output,) = future.result(timeout=30)
        (want,) = BatchToneMapper(PARAMS).run([image]).outputs
        np.testing.assert_array_equal(output.pixels, want.pixels)

    def test_submit_propagates_errors(self):
        with ToneMapService(PARAMS, batch_size=2) as service:
            lease = service.lease_input((16, 16))
            future = service.submit_stack(lease, 3, ["a", "b", "c"])
            with pytest.raises(ToneMapError):
                future.result(timeout=30)

    def test_stats_accumulate(self):
        images = scenes(4, size=16)
        with ToneMapService(PARAMS, batch_size=2) as service:
            assert service.stats == ServiceStats()
            assert service.stats.pixels_per_sec == 0.0
            service.map_many(images)
            stats = service.stats
        assert stats.images == 4
        assert stats.pixels == 4 * 16 * 16
        assert stats.seconds > 0.0
        assert stats.pixels_per_sec > 0.0

    def test_empty_input(self):
        with ToneMapService(PARAMS) as service:
            assert service.map_many([]) == []

    def test_invalid_batch_size(self):
        with pytest.raises(ToneMapError):
            ToneMapService(PARAMS, batch_size=0)

    def test_non_image_rejected_before_submit(self):
        with ToneMapService(PARAMS) as service:
            with pytest.raises(ToneMapError):
                service.map_many([np.zeros((4, 4))])

    def test_stats_batches_and_latency(self):
        images = scenes(4, size=16)
        with ToneMapService(PARAMS, batch_size=2) as service:
            service.map_many(images)
            stats = service.stats
        assert stats.batches == 2
        assert stats.queue_depth == 0
        assert stats.queue_peak >= 1
        assert stats.latency_p50_ms > 0.0
        assert stats.latency_p95_ms >= stats.latency_p50_ms
        assert stats.latency_p99_ms >= stats.latency_p95_ms

    def test_queue_depth_counts_queued_batches(self):
        # Batches waiting behind the thread pool are "admitted but not
        # finished" and must show up in queue_depth, not just the ones a
        # worker has started executing.
        params, entered, gate = gated_params()
        with ToneMapService(params, max_workers=1) as service:
            futures = []
            for image in scenes(3, size=16):
                lease = service.lease_input(image.pixels.shape)
                lease.array[0] = image.pixels
                futures.append(service.submit_stack(lease, 1, [image.name]))
            assert service.stats.queue_depth == 3
            assert service.stats.queue_peak == 3
            gate.set()
            for future in futures:
                future.result(timeout=30)
            assert service.stats.queue_depth == 0

    def test_map_many_stages_each_chunk_in_its_pooled_task(self):
        # Three 2-frame chunks on one pool thread: all three count in
        # queue_depth, but only the running chunk holds arena stacks
        # (its input and its output slab) — the queued two are not
        # staged until a thread picks them up.
        params, entered, gate = gated_params()
        with ToneMapService(params, max_workers=1, batch_size=2) as service:
            images = scenes(6, size=16)
            outputs = []
            runner = threading.Thread(
                target=lambda: outputs.extend(service.map_many(images))
            )
            runner.start()
            try:
                assert entered.wait(timeout=30)
                for _ in range(3000):  # the loop admits chunks 2 and 3
                    if service.stats.queue_depth == 3:
                        break
                    time.sleep(0.01)
                assert service.stats.queue_depth == 3
                assert service.pool.arena.stats.leases_active == 2
            finally:
                gate.set()
                runner.join(timeout=60)
            assert len(outputs) == 6
            stats = service.pool.arena.stats
            # Each frame is copied into the arena exactly once.
            assert stats.bytes_copied_in == 6 * 16 * 16 * 3 * 4
            assert stats.leases_active == 0

    def test_failed_batch_releases_queue_slot(self):
        with ToneMapService(PARAMS, batch_size=2) as service:
            lease = service.lease_input((16, 16))
            future = service.submit_stack(lease, 0, [])
            with pytest.raises(ToneMapError, match="count"):
                future.result(timeout=30)
            assert service.stats.queue_depth == 0
            assert service.pool.arena.stats.leases_active == 0

    def test_fixed_config_matches_blur_fn_closure(self):
        # The picklable fixed-point blur (batched through blur_batch)
        # equals a plain per-plane closure over the same arithmetic.
        from repro.tonemap.fixed_blur import fixed_point_blur_plane

        images = scenes(3, size=16)
        fixed_params = replace(PARAMS, blur_fn=make_fixed_blur_fn())
        with ToneMapService(fixed_params) as service:
            got = service.map_many(images)
        closure_params = replace(
            PARAMS,
            blur_fn=lambda plane, kernel: fixed_point_blur_plane(plane, kernel),
        )
        want = BatchToneMapper(closure_params).run(images).outputs
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.pixels, w.pixels)


class TestUntrustedBlurOutputs:
    """A ``blur_fn`` without ``trusted_finite`` is checked on every backend."""

    PARAMS = ToneMapParams(sigma=2.0, radius=6, blur_fn=nan_blur)

    @pytest.mark.parametrize(
        "backend", [{}, {"shards": 1}, {"hosts": 1}],
        ids=["local", "sharded", "hosted"],
    )
    def test_map_many_raises(self, backend):
        with ToneMapService(self.PARAMS, **backend) as service:
            with pytest.raises(ImageError):
                service.map_many(scenes(2, size=16))
            assert service.stats.queue_depth == 0
            assert service.pool.arena.stats.leases_active == 0

    @pytest.mark.parametrize("shards", [None, 1], ids=["local", "sharded"])
    def test_lease_results_release_the_slab(self, shards):
        stack = np.stack([image.pixels for image in scenes(2, size=16)])
        with ToneMapService(
            self.PARAMS, batch_size=2, shards=shards
        ) as service:
            lease = service.lease_input(stack.shape[1:])
            lease.array[:] = stack
            future = service.submit_stack(
                lease, 2, ["a", "b"], lease_results=True
            )
            with pytest.raises(ImageError):
                future.result(timeout=60)
            assert service.pool.arena.stats.leases_active == 0

    def test_half_open_breaker_counts_the_pool_run_as_a_probe(self):
        # Bad pixels are the blur's fault, not the pool's: the probe
        # batch still closes a half-open breaker instead of holding its
        # probe token forever.
        from repro.runtime import BreakerPolicy, CircuitBreaker, FakeClock

        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(
                failure_threshold=1, cooldown_s=1.0, probe_batches=1
            ),
            clock=clock,
        )
        breaker.record_failure()
        clock.advance(2.0)
        with ToneMapService(
            self.PARAMS, shards=1, breaker=breaker, clock=clock
        ) as service:
            with pytest.raises(ImageError):
                service.map_many(scenes(2, size=16))
            assert breaker.state == "closed"
            assert service.stats.reliability.brownout_batches == 0

    def test_direct_shard_pool_run_leased_raises(self, run_materialized):
        # The scan runs where the blur runs, so a pool used without a
        # service refuses the outputs too, and releases their slab.
        from repro.runtime import ShardPool

        stack = np.stack([image.pixels for image in scenes(2, size=16)])
        with ShardPool(self.PARAMS, shards=1) as pool:
            with pytest.raises(ImageError):
                run_materialized(pool, stack)
            assert pool.arena.stats.leases_active == 0


class TestEngineInputs:
    """``(params, plan)`` are the only engine inputs."""

    @pytest.mark.parametrize("method", ["folded", "fft"])
    def test_staged_plan_runs_its_blur_method(self, method):
        # A staged plan pinned to a blur method must run it, not the
        # active profile's auto choice (fft at sigma 16).  The reference
        # forces the same method onto an unplanned staged mapper.
        from repro import planner
        from repro.planner import pinned, plan_for

        params = ToneMapParams(sigma=16.0)
        stack = np.random.default_rng(16).uniform(
            0.0, 1.0, (2, 256, 256)
        ).astype(np.float32)
        plan = pinned(
            plan_for(height=256, width=256, batch=2, sigma=16.0, threads=1),
            engine="staged",
            blur_method=method,
        )
        got = BatchToneMapper(params, plan=plan).run_stack(stack)
        forced = {
            "folded": dict(fft_crossover_taps=10**6),
            "fft": dict(fft_crossover_taps=1),
        }[method]
        with planner.override(**forced):
            want = BatchToneMapper(params).run_stack(stack)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("knob", [
        "fused", "fused_threads", "fixed_config",
        "autoscale", "max_shards", "policy", "autoscale_policy",
    ])
    def test_removed_engine_knobs_raise_type_error(self, knob):
        from repro.runtime import HostPool, HostServer, ShardPool

        constructors = [
            BatchToneMapper, ShardPool, HostServer, HostPool.spawn_local,
            ToneMapService,
        ]
        # The required first argument of the host pool (a count) and
        # the server (its pool), so only the knob can raise.
        firsts = {HostPool.spawn_local: (1,), HostServer: (None,)}
        for construct in constructors:
            with pytest.raises(TypeError, match=knob):
                construct(*firsts.get(construct, ()), **{knob: None})

    @pytest.mark.parametrize("owner", [
        "ToneMapService", "ShardPool", "HostPool", "LocalBackend",
        "BatchToneMapper",
    ])
    def test_removed_entry_points_stay_removed(self, owner):
        # One way in per layer: map_many or lease_input + submit_stack
        # on the service, lease_input + run_leased on a backend, run and
        # run_stack on the mapper.
        import repro.runtime as runtime

        cls = getattr(runtime, owner)
        removed = {"run_batch", "submit", "submit_batch", "map", "run_stack"}
        if cls is BatchToneMapper:
            removed.discard("run_stack")
        assert removed.isdisjoint(dir(cls))


class TestRunStack:
    def test_matches_run_on_wrapped_images(self):
        images = scenes(3, size=16)
        stack = np.stack([image.pixels for image in images])
        mapper = BatchToneMapper(PARAMS)
        got = mapper.run_stack(stack)
        want = mapper.run(images)
        for plane, output in zip(got, want.outputs):
            np.testing.assert_array_equal(
                plane.astype(np.float32), output.pixels
            )

    def test_out_parameter_is_filled_and_returned(self):
        stack = np.stack([im.pixels for im in scenes(2, size=16, color=False)])
        out = np.empty(stack.shape, dtype=np.float32)
        mapper = BatchToneMapper(PARAMS)
        returned = mapper.run_stack(stack, out=out)
        assert returned is out
        np.testing.assert_array_equal(
            out, mapper.run_stack(stack).astype(np.float32)
        )

    def test_bad_shapes_rejected(self):
        mapper = BatchToneMapper(PARAMS)
        with pytest.raises(ToneMapError):
            mapper.run_stack(np.zeros((8, 8)))
        with pytest.raises(ToneMapError):
            mapper.run_stack(np.zeros((2, 8, 8, 4)))
        with pytest.raises(ToneMapError):
            mapper.run_stack(
                np.zeros((2, 8, 8)), out=np.zeros((3, 8, 8), dtype=np.float32)
            )

    def test_batched_blur_fn_protocol_used(self):
        # A blur_fn exposing .blur_batch must be called once per stack,
        # not once per plane.
        calls = {"batch": 0, "plane": 0}

        def plane_fn(plane, kernel):
            calls["plane"] += 1
            from repro.tonemap.gaussian import separable_blur

            return separable_blur(plane, kernel)

        def batch_fn(planes, kernel):
            calls["batch"] += 1
            from repro.tonemap.gaussian import blur_batch

            return blur_batch(planes, kernel)

        plane_fn.blur_batch = batch_fn
        params = ToneMapParams(sigma=2.0, radius=6, blur_fn=plane_fn)
        BatchToneMapper(params).run(scenes(3, size=16))
        assert calls["batch"] == 1
        assert calls["plane"] == 0
