"""Fused-vs-staged equivalence and the fused engine's contracts.

The tolerance contract under test (documented in
``src/repro/runtime/fused.py`` and ``docs/architecture.md``):

* where the staged blur resolves to the folded/tiled row convolution
  (``taps < FFT_CROSSOVER_TAPS``), fused masks and outputs are
  **bit-identical** to the staged path, for every shape, thread count,
  and band size;
* from ``fused_fft_min_taps`` upward the whole-plane FFT mask runs the
  staged transform itself, so masks and outputs are **bit-identical**
  again;
* only in between (``FFT_CROSSOVER_TAPS <= taps < fused_fft_min_taps``:
  the ring's folded window against a staged FFT) do outputs agree
  within the blur module's 1e-9 absolute band instead.

Plus the steady-state allocation contract (``intermediate_bytes`` stops
growing once per-thread scratch is warm), the row partitioner's
exactly-once coverage, and the shared-mutable-default fix on the mapper
constructors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ToneMapError
from repro.image.synthetic import SceneParams, make_scene
from repro.runtime import (
    BatchToneMapper,
    FusedExecutor,
    FusedToneMapPlan,
    ShardPool,
    ToneMapService,
)
from repro.runtime.fused import _partition_spans
from repro.tonemap.gaussian import FFT_CROSSOVER_TAPS
from repro.tonemap.masking import MaskingParams
from repro.tonemap.pipeline import ToneMapParams, ToneMapper

#: Narrow kernels resolve to folded/tiled -> bit-identical contract;
#: wide ones to the FFT -> 1e-9 band at worst (taps 97 runs the plane
#: mask, which TestPlaneRegime pins bit for bit).  (taps = 2*radius + 1.)
FOLDED_PARAMS = [
    ToneMapParams(sigma=2.0, radius=6),
    ToneMapParams(sigma=3.0, radius=11),
]
FFT_PARAMS = [
    ToneMapParams(sigma=4.0),   # taps 25, at the crossover
    ToneMapParams(sigma=16.0),  # the paper default, taps 97
]
#: Kernels at or above fused_fft_min_taps: the whole-plane FFT mask.
PLANE_PARAMS = [
    ToneMapParams(sigma=6.0),   # taps 37
    ToneMapParams(sigma=16.0),  # the paper default, taps 97
]
#: Gray and RGB at batch 1, 3 and 4; every frame is smaller than one
#: FFT row block, and 97x130 is odd in both directions.
PLANE_SHAPES = [
    (1, 48, 48),
    (3, 97, 130),
    (4, 48, 48),
    (1, 97, 130, 3),
    (3, 48, 48, 3),
    (4, 97, 130, 3),
]
SHAPES = [
    (3, 40, 56),        # gray, several images
    (2, 33, 47),        # odd geometry
    (2, 30, 24, 3),     # RGB
    (1, 16, 16),        # radius can exceed height
]
THREADS = [1, 2, 3]


def _stack(shape, seed=0):
    rng = np.random.default_rng(seed)
    stack = rng.uniform(0.0, 2.0, shape).astype(np.float32)
    stack[0].flat[0] = 0.0  # exercise the epsilon floor
    return stack


def _staged(params, stack):
    mapper = BatchToneMapper(params)
    masks = np.empty(stack.shape[:3], dtype=np.float64)
    out = mapper._run_stack(stack, masks)
    return out, masks


def _fused(params, stack, threads, band_bytes=None):
    plan = FusedToneMapPlan(params, band_bytes=band_bytes)
    out = np.empty(stack.shape, dtype=np.float64)
    masks = np.empty(stack.shape[:3], dtype=np.float64)
    with FusedExecutor(threads=threads) as executor:
        executor.run(plan, stack, out, masks)
        stats = executor.stats
    return out, masks, stats


class TestToleranceContract:
    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize(
        "params", FOLDED_PARAMS,
        ids=[f"taps{p.kernel().taps}" for p in FOLDED_PARAMS],
    )
    def test_folded_paths_bit_identical(self, params, shape, threads):
        assert params.kernel().taps < FFT_CROSSOVER_TAPS  # suite invariant
        stack = _stack(shape)
        want, want_masks = _staged(params, stack)
        got, got_masks, _ = _fused(params, stack, threads)
        np.testing.assert_array_equal(got_masks, want_masks)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize(
        "params", FFT_PARAMS,
        ids=[f"taps{p.kernel().taps}" for p in FFT_PARAMS],
    )
    def test_fft_paths_within_band(self, params, shape, threads):
        assert params.kernel().taps >= FFT_CROSSOVER_TAPS
        stack = _stack(shape)
        want, want_masks = _staged(params, stack)
        got, got_masks, _ = _fused(params, stack, threads)
        np.testing.assert_allclose(got_masks, want_masks, atol=1e-9)
        np.testing.assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_ring_reuse_stays_bit_identical(self, threads):
        # A tiny band budget forces many bands per span, so the halo
        # ring actually carries rows between bands.
        params = FOLDED_PARAMS[0]
        stack = _stack((2, 300, 64), seed=3)
        want, want_masks = _staged(params, stack)
        got, got_masks, stats = _fused(
            params, stack, threads, band_bytes=1 << 14
        )
        assert stats.halo_rows_reused > 0
        np.testing.assert_array_equal(got_masks, want_masks)
        np.testing.assert_array_equal(got, want)

    def test_black_image_passes_through(self):
        params = FOLDED_PARAMS[0]
        stack = np.zeros((1, 24, 24), dtype=np.float32)
        got, _, _ = _fused(params, stack, threads=1)
        want, _ = _staged(params, stack)
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=20, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=3),
        height=st.integers(min_value=8, max_value=64),
        width=st.integers(min_value=8, max_value=64),
        radius=st.integers(min_value=2, max_value=9),
        threads=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_stacks_bit_identical(
        self, count, height, width, radius, threads, seed
    ):
        params = ToneMapParams(sigma=max(radius / 3.0, 0.5), radius=radius)
        rng = np.random.default_rng(seed)
        stack = rng.uniform(
            0.0, 4.0, (count, height, width)
        ).astype(np.float32)
        want, want_masks = _staged(params, stack)
        got, got_masks, _ = _fused(
            params, stack, threads, band_bytes=1 << 14
        )
        np.testing.assert_array_equal(got_masks, want_masks)
        np.testing.assert_array_equal(got, want)


class TestPlaneRegime:
    """taps >= fused_fft_min_taps: bit-identical to staged ``run_stack``."""

    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize(
        "shape", PLANE_SHAPES,
        ids=["x".join(map(str, s)) for s in PLANE_SHAPES],
    )
    @pytest.mark.parametrize(
        "params", PLANE_PARAMS,
        ids=[f"taps{p.kernel().taps}" for p in PLANE_PARAMS],
    )
    def test_bit_identical_to_staged(self, params, shape, threads):
        plan = FusedToneMapPlan(params)
        assert plan.h_method(*shape[1:3]) == "fft"  # suite invariant
        stack = _stack(shape, seed=len(shape) + threads)
        staged = BatchToneMapper(params)
        want64 = staged.run_stack(stack)
        want32 = staged.run_stack(stack, np.empty(shape, np.float32))
        _, want_masks = _staged(params, stack)
        got64 = np.empty(shape)
        got32 = np.empty(shape, np.float32)
        masks = np.empty(shape[:3])
        with FusedExecutor(threads=threads) as executor:
            executor.run(plan, stack, got64, masks)
            executor.run(plan, stack, got32)
            stats = executor.stats
        np.testing.assert_array_equal(masks, want_masks)
        np.testing.assert_array_equal(got64, want64)
        np.testing.assert_array_equal(got32, want32)
        # Whole images per thread: no ring, so no halo rows.
        assert stats.threads_used == min(threads, shape[0])
        assert stats.halo_rows_reused == 0

    def test_mapper_masks_write_through(self):
        params = PLANE_PARAMS[1]
        images = [
            make_scene(
                "window_interior",
                SceneParams(height=97, width=130, seed=i, color=True),
            )
            for i in range(3)
        ]
        want = BatchToneMapper(params).run(images)
        mapper = BatchToneMapper(params, fused=True, threads=2)
        try:
            got = mapper.run(images)
        finally:
            mapper.close()
        np.testing.assert_array_equal(got.masks, want.masks)
        for g, w in zip(got.outputs, want.outputs):
            np.testing.assert_array_equal(g.pixels, w.pixels)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_intermediate_bytes_stop_growing(self, threads):
        plan = FusedToneMapPlan(PLANE_PARAMS[1])
        stack = _stack((3, 97, 130, 3), seed=5)
        out = np.empty(stack.shape, dtype=np.float32)
        with FusedExecutor(threads=threads) as executor:
            executor.run(plan, stack, out)  # warm-up allocates scratch
            warm = executor.stats
            # each workspace holds one pooled (H, W) mask plane
            assert warm.intermediate_bytes >= threads * 97 * 130 * 8
            for _ in range(3):
                executor.run(plan, stack, out)
            steady = executor.stats
        assert steady.intermediate_bytes == warm.intermediate_bytes
        assert steady.scratch_bytes == warm.scratch_bytes
        assert steady.bands_executed == 4 * warm.bands_executed
        assert steady.fft_scratch_bytes == 4 * warm.fft_scratch_bytes


class TestSteadyStateAllocation:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_intermediate_bytes_stop_growing(self, threads):
        params = ToneMapParams(sigma=2.0, radius=6)
        plan = FusedToneMapPlan(params, band_bytes=1 << 14)
        stack = _stack((2, 96, 64), seed=5)
        out = np.empty(stack.shape, dtype=np.float32)
        with FusedExecutor(threads=threads) as executor:
            executor.run(plan, stack, out)  # warm-up allocates scratch
            warm = executor.stats
            assert warm.intermediate_bytes > 0  # the counter is live
            for _ in range(3):
                executor.run(plan, stack, out)
            steady = executor.stats
        assert steady.intermediate_bytes == warm.intermediate_bytes
        assert steady.bands_executed > warm.bands_executed
        assert steady.scratch_bytes == warm.scratch_bytes

    def test_geometry_pool_is_bounded_lru(self):
        # Arbitrary shape diversity must not grow resident scratch
        # without bound: beyond FUSED_POOLED_GEOMETRIES distinct
        # geometries the LRU geometry's workspaces are evicted, and the
        # cumulative allocation counter stays monotonic across that.
        from repro.runtime.fused import FUSED_POOLED_GEOMETRIES

        params = ToneMapParams(sigma=2.0, radius=6)
        plan = FusedToneMapPlan(params)
        with FusedExecutor(threads=2) as executor:
            for step in range(FUSED_POOLED_GEOMETRIES + 4):
                width = 16 + 2 * step
                stack = _stack((1, 24, width), seed=step)
                executor.run(plan, stack, np.empty_like(stack))
            assert len(executor._free) <= FUSED_POOLED_GEOMETRIES
            assert (
                len(executor._workspaces)
                <= 2 * FUSED_POOLED_GEOMETRIES
            )
            before = executor.stats.intermediate_bytes
            stack = _stack((1, 24, 16))  # evicted geometry: re-warms
            executor.run(plan, stack, np.empty_like(stack))
            assert executor.stats.intermediate_bytes >= before

    def test_concurrent_mixed_geometry_eviction_safe(self):
        # Regression: a geometry whose free-list entry is LRU-evicted
        # while its run is in flight must re-seed the pool on release,
        # not raise KeyError and leak the workspaces.
        from concurrent.futures import ThreadPoolExecutor as TPE

        from repro.runtime.fused import FUSED_POOLED_GEOMETRIES

        params = ToneMapParams(sigma=2.0, radius=6)
        plan = FusedToneMapPlan(params)
        shapes = [
            (1, 24, 16 + 2 * i) for i in range(FUSED_POOLED_GEOMETRIES + 4)
        ]
        stacks = [_stack(s, seed=i) for i, s in enumerate(shapes)]
        with FusedExecutor(threads=2) as executor:
            def run_one(stack):
                executor.run(plan, stack, np.empty_like(stack))
            with TPE(max_workers=len(stacks)) as pool:
                for _ in range(4):
                    list(pool.map(run_one, stacks))
            assert len(executor._free) <= FUSED_POOLED_GEOMETRIES

    def test_fft_scratch_counted_separately(self):
        # Ring regime: zero FFT scratch.  Plane regime: every block
        # transform's transients are counted — the edge-padded rows,
        # their spectrum and the inverse, per pass, plus the transposed
        # column block of the vertical pass — while the workspace
        # counter settles.
        narrow = FusedToneMapPlan(ToneMapParams(sigma=2.0, radius=6))
        wide = FusedToneMapPlan(ToneMapParams(sigma=16.0))
        stack = _stack((1, 48, 48))
        with FusedExecutor(threads=1) as executor:
            executor.run(narrow, stack, np.empty_like(stack))
            assert executor.stats.fft_scratch_bytes == 0
        # 48 rows fit one block per pass; taps 97 pads each row by 96
        # and transforms it at length 48 + 2 * 96.
        padded, n_fft = 48 + 96, 48 + 2 * 96
        per_pass = 48 * (8 * padded + 16 * (n_fft // 2 + 1) + 8 * n_fft)
        expected = 2 * per_pass + 48 * 48 * 8
        with FusedExecutor(threads=1) as executor:
            executor.run(wide, stack, np.empty_like(stack))
            first = executor.stats
            assert first.fft_scratch_bytes == expected
            executor.run(wide, stack, np.empty_like(stack))
            second = executor.stats
            # workspace scratch settles; FFT transients churn per run
            assert second.intermediate_bytes == first.intermediate_bytes
            assert second.fft_scratch_bytes == 2 * expected

    def test_fft_transients_stay_block_sized(self):
        # Measured, not counted: numpy reports array allocations to
        # tracemalloc, so the peak of a warm plane-regime run bounds
        # every transient it makes.  A 1024² plane is 8 MiB; the block
        # transforms must stay far below one frame-sized temporary.
        import tracemalloc

        from repro.runtime.fused import PLANE_FFT_BLOCK_BYTES

        plan = FusedToneMapPlan(ToneMapParams(sigma=16.0))
        stack = _stack((1, 1024, 1024), seed=2)
        out = np.empty_like(stack)
        with FusedExecutor(threads=1) as executor:
            executor.run(plan, stack, out)  # warm: pooled plane + bands
            tracemalloc.start()
            try:
                executor.run(plan, stack, out)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 2 * PLANE_FFT_BLOCK_BYTES
        assert peak < 1024 * 1024 * 8 // 2

    def test_shape_change_reallocates_then_settles(self):
        params = ToneMapParams(sigma=2.0, radius=6)
        plan = FusedToneMapPlan(params)
        with FusedExecutor(threads=1) as executor:
            small = _stack((1, 32, 32))
            big = _stack((1, 32, 64), seed=1)
            executor.run(plan, small, np.empty_like(small))
            first = executor.stats.intermediate_bytes
            executor.run(plan, big, np.empty_like(big))
            grown = executor.stats.intermediate_bytes
            assert grown > first  # wider rows need new scratch
            executor.run(plan, big, np.empty_like(big))
            assert executor.stats.intermediate_bytes == grown

    def test_mixed_shape_traffic_reuses_per_shape_scratch(self):
        # Workspaces are pooled per scratch geometry: alternating two
        # frame shapes through one executor must warm one scratch set
        # per shape and then stop allocating — not re-size the same
        # buffers on every alternation.
        params = ToneMapParams(sigma=2.0, radius=6)
        plan = FusedToneMapPlan(params)
        small = _stack((1, 32, 32))
        big = _stack((2, 48, 64), seed=1)
        with FusedExecutor(threads=2) as executor:
            for stack in (small, big):  # warm both geometries
                executor.run(plan, stack, np.empty_like(stack))
            warm = executor.stats.intermediate_bytes
            for _ in range(3):  # steady-state alternation
                executor.run(plan, small, np.empty_like(small))
                executor.run(plan, big, np.empty_like(big))
            assert executor.stats.intermediate_bytes == warm

    def test_service_close_retires_fused_threads(self):
        import threading

        service = ToneMapService(
            ToneMapParams(sigma=2.0, radius=6), fused=True, fused_threads=2
        )
        images = [
            make_scene(
                "window_interior",
                SceneParams(height=24, width=24, seed=i),
            )
            for i in range(2)
        ]
        service.map_many(images)
        assert any(
            t.name.startswith("fused") for t in threading.enumerate()
        )
        service.close()
        assert not any(
            t.name.startswith("fused") for t in threading.enumerate()
        )

    def test_mapper_counters_exposed(self):
        mapper = BatchToneMapper(
            ToneMapParams(sigma=2.0, radius=6), fused=True, threads=2
        )
        assert mapper.fused
        stack = _stack((2, 32, 32))
        mapper.run_stack(stack)
        stats = mapper.fused_stats
        assert stats.runs == 1
        assert stats.frames == 2
        assert stats.bands_executed >= 2
        assert BatchToneMapper(ToneMapParams()).fused_stats is None


class TestPartition:
    @pytest.mark.parametrize(
        "count,height,parts",
        [(1, 10, 1), (1, 10, 3), (3, 7, 2), (4, 4, 16), (2, 5, 100)],
    )
    def test_rows_covered_exactly_once(self, count, height, parts):
        chunks = _partition_spans(count, height, parts)
        seen = np.zeros((count, height), dtype=int)
        for spans in chunks:
            for image, lo, hi in spans:
                assert 0 <= lo < hi <= height
                seen[image, lo:hi] += 1
        assert (seen == 1).all()
        assert len(chunks) <= max(1, min(parts, count * height))
        # balance: chunk sizes differ by at most one row
        sizes = [
            sum(hi - lo for _, lo, hi in spans) for spans in chunks
        ]
        assert max(sizes) - min(sizes) <= 1


class TestValidationAndDefaults:
    def test_fused_rejects_custom_blur_fn(self):
        params = ToneMapParams(
            sigma=2.0, radius=6, blur_fn=lambda plane, kernel: plane
        )
        with pytest.raises(ToneMapError):
            BatchToneMapper(params, fused=True)
        with pytest.raises(ToneMapError):
            FusedToneMapPlan(params)

    def test_executor_rejects_bad_inputs(self):
        plan = FusedToneMapPlan(ToneMapParams(sigma=2.0, radius=6))
        with FusedExecutor(threads=1) as executor:
            f64 = np.zeros((1, 8, 8))
            with pytest.raises(ToneMapError):
                executor.run(plan, f64, np.empty_like(f64))
            f32 = f64.astype(np.float32)
            with pytest.raises(ToneMapError):
                executor.run(plan, f32, np.empty((1, 8, 9)))
            with pytest.raises(ToneMapError):
                executor.run(plan, np.zeros((8, 8), np.float32),
                             np.empty((8, 8)))
            with pytest.raises(ToneMapError):
                executor.run(plan, f32, np.empty_like(f64),
                             masks_out=np.empty((1, 8, 8), np.float32))
        with pytest.raises(ToneMapError):
            FusedExecutor(threads=0)

    def test_threads_default_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED_THREADS", "3")
        assert FusedExecutor().threads == 3
        monkeypatch.setenv("REPRO_FUSED_THREADS", "not-a-number")
        import os

        assert FusedExecutor().threads == (os.cpu_count() or 1)

    def test_default_params_not_shared_between_mappers(self):
        # The old `params: ToneMapParams = ToneMapParams()` default was
        # evaluated once at class definition: every default-constructed
        # mapper shared one module-level instance.
        assert BatchToneMapper().params is not BatchToneMapper().params
        assert ToneMapper().params is not ToneMapper().params
        # And the nested mutable-prone members are per-instance too.
        a, b = BatchToneMapper().params, BatchToneMapper().params
        assert a.masking is not b.masking
        assert a.adjust is not b.adjust

    def test_masking_params_still_default_correctly(self):
        assert BatchToneMapper().params.masking == MaskingParams()


class TestRuntimeWiring:
    def _scenes(self, count, size=32):
        return [
            make_scene(
                "window_interior",
                SceneParams(height=size, width=size, seed=100 + i),
            )
            for i in range(count)
        ]

    PARAMS = ToneMapParams(sigma=2.0, radius=6)

    def test_mapper_run_matches_staged(self):
        images = self._scenes(3)
        want = BatchToneMapper(self.PARAMS).run(images)
        got = BatchToneMapper(self.PARAMS, fused=True, threads=2).run(images)
        np.testing.assert_array_equal(got.masks, want.masks)
        for g, w in zip(got.outputs, want.outputs):
            np.testing.assert_array_equal(g.pixels, w.pixels)
            assert g.name == w.name
        assert got.pixels == want.pixels

    def test_shard_workers_fused_bit_identical(self):
        images = self._scenes(4, size=24)
        want = BatchToneMapper(self.PARAMS).map(images)
        with ShardPool(
            self.PARAMS, shards=2, fused=True, fused_threads=1
        ) as pool:
            got = pool.run_batch(images)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.pixels, w.pixels)

    def test_shard_fused_threads_default_to_one(self):
        # Each worker process defaulting to cpu_count() fused threads
        # would oversubscribe the host shards-fold; the sharded default
        # is 1 thread per worker.
        with ShardPool(self.PARAMS, shards=2, fused=True) as pool:
            assert pool.fused_threads == 1
        mapper = BatchToneMapper(self.PARAMS, fused=True)
        try:
            import os

            assert mapper._engine.threads == (os.cpu_count() or 1)
        finally:
            mapper.close()

    def test_shard_rejects_fused_fixed_point(self):
        from repro.tonemap.fixed_blur import FixedBlurConfig

        with pytest.raises(ToneMapError):
            ShardPool(self.PARAMS, fused=True,
                      fixed_config=FixedBlurConfig())
        with pytest.raises(ToneMapError):
            ToneMapService(self.PARAMS, fused=True,
                           fixed_config=FixedBlurConfig())

    def test_service_fused_matches_staged(self):
        images = self._scenes(5, size=24)
        with ToneMapService(self.PARAMS, batch_size=2) as service:
            want = service.map_many(images)
        with ToneMapService(
            self.PARAMS, batch_size=2, fused=True, fused_threads=2
        ) as service:
            got = service.map_many(images)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.pixels, w.pixels)

    def test_ingestor_over_fused_sharded_service(self):
        from repro.runtime import ToneMapIngestor

        images = self._scenes(6, size=24)
        want = BatchToneMapper(self.PARAMS).map(images)
        with ToneMapService(
            self.PARAMS, batch_size=3, shards=2, fused=True,
            fused_threads=1,
        ) as service:
            with ToneMapIngestor(service, max_delay_ms=5.0) as ingestor:
                futures = [ingestor.submit(image) for image in images]
                got = [future.result(timeout=60) for future in futures]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.pixels, w.pixels)
