"""Fused-vs-staged equivalence and the fused engine's contracts.

The tolerance contract under test (documented in
``src/repro/runtime/fused.py`` and ``docs/architecture.md``):

* where the staged blur resolves to the folded row convolution
  (``taps < fft_crossover_taps``), fused masks and outputs are
  **bit-identical** to the staged path, for every shape, thread count,
  and band size;
* from ``fused_fft_min_taps`` upward the whole-plane FFT mask runs the
  staged transform itself, so masks and outputs are **bit-identical**
  again (the plane-regime tests pin that crossover at
  :data:`PLANE_MIN_TAPS`, so the plane keeps its coverage at taps 37
  and 97, which the default crossover leaves to the ring);
* only in between (``fft_crossover_taps <= taps < fused_fft_min_taps``:
  the ring's folded window against a staged FFT, the paper's sigma 16
  among them) do outputs agree within the blur module's 1e-9 absolute
  band instead.

Every bit-identity class runs twice: on the host's band kernels (the
compiled C library wherever a compiler works) and, in its ``...Numpy``
subclass, on the NumPy kernels a host without a compiler falls back to.

Plus the steady-state allocation contract (``intermediate_bytes`` stops
growing once per-thread scratch is warm), the row partitioner's
exactly-once coverage, the band library's build, cache and fallback,
and the shared-mutable-default fix on the mapper constructors.
"""

import os
import stat
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import planner
from repro.errors import ToneMapError
from repro.image.synthetic import SceneParams, make_scene
from repro.runtime import (
    BatchToneMapper,
    FusedExecutor,
    FusedToneMapPlan,
    ShardPool,
    ToneMapService,
    band_kernels,
)
from repro.runtime.fused import (
    POOLED_GEOMETRIES,
    _partition_spans,
    _ring_stride,
    _Workspace,
)
from repro.planner import plan_for
from repro.planner.profile import DEFAULT_FFT_CROSSOVER_TAPS
from repro.tonemap.adjust import AdjustParams
from repro.tonemap.gaussian import GaussianKernel
from repro.tonemap.masking import MaskingParams
from repro.tonemap.pipeline import ToneMapParams, ToneMapper

#: Narrow kernels resolve to folded -> bit-identical contract;
#: wide ones to the staged FFT while the fused engine keeps its band
#: ring -> the 1e-9 band (taps 97, the paper default, runs the ring
#: below the default fused_fft_min_taps).  (taps = 2*radius + 1.)
FOLDED_PARAMS = [
    ToneMapParams(sigma=2.0, radius=6),
    ToneMapParams(sigma=3.0, radius=11),
]
FFT_PARAMS = [
    ToneMapParams(sigma=4.0),   # taps 25, at the crossover
    ToneMapParams(sigma=16.0),  # the paper default, taps 97
]
#: The fused_fft_min_taps the plane-regime tests pin, so PLANE_PARAMS
#: run the whole-plane FFT mask whatever the default crossover.
PLANE_MIN_TAPS = 33
#: Kernels at or above PLANE_MIN_TAPS: the whole-plane FFT mask.
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
#: Frames around the compiled ring's 16-column blocks: one column, a
#: width below one block, a one-column tail, and a 2-column tail.
ODD_SHAPES = [(2, 5, 1), (1, 40, 15), (2, 23, 17, 3), (1, 9, 130, 3)]
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


def _plan(params, threads=None):
    """The planner's plan for ``params`` — fused, as for every float
    workload (the workload shape does not enter the fused engine)."""
    plan = plan_for(
        height=32, width=32, sigma=params.sigma, radius=params.radius,
        threads=threads,
    )
    assert plan.engine == "fused"
    return plan


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
        # Suite invariant: the narrow kernels stay below the crossover.
        assert params.kernel().taps < DEFAULT_FFT_CROSSOVER_TAPS
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
        assert params.kernel().taps >= DEFAULT_FFT_CROSSOVER_TAPS
        assert FusedToneMapPlan(params).h_method() == "folded"  # the ring
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

    @pytest.mark.parametrize(
        "shape", [(2, 24, 24), (2, 24, 24, 3)], ids=["gray", "rgb"]
    )
    def test_true_blacks_and_all_zero_frames(self, shape):
        # Frame 0 is all zero (denominator 1); frame 1 holds zeros and
        # values that normalize to <= epsilon among lit pixels.
        params = FOLDED_PARAMS[0]
        stack = _stack(shape, seed=11)
        stack[0] = 0.0
        stack[1, ::3] = 0.0
        stack[1, 1::5] = 1e-13
        want, want_masks = _staged(params, stack)
        got, got_masks, _ = _fused(params, stack, threads=2)
        np.testing.assert_array_equal(got_masks, want_masks)
        np.testing.assert_array_equal(got, want)
        assert not got[0].any() and not got[1, ::3].any()  # blacks stay 0

    @pytest.mark.parametrize("strided", ["stack", "out", "masks"])
    @pytest.mark.parametrize(
        "shape", [(2, 40, 56), (2, 30, 24, 3)], ids=["gray", "rgb"]
    )
    def test_non_contiguous_arrays(self, shape, strided):
        # Every other column of a twice-as-wide array: the C kernels
        # index flat rows, so such a run must still match staged.
        params = FOLDED_PARAMS[0]
        stack = _stack(shape, seed=7)
        want, want_masks = _staged(params, stack)
        wide = shape[:2] + (2 * shape[2],) + shape[3:]

        def columns(array):
            return array[:, :, ::2]

        src = stack
        if strided == "stack":
            src = columns(np.zeros(wide, np.float32))
            src[...] = stack
        out = columns(np.zeros(wide)) if strided == "out" else np.zeros(shape)
        masks = (
            columns(np.zeros(wide[:3])) if strided == "masks"
            else np.zeros(shape[:3])
        )
        with FusedExecutor(threads=2) as executor:
            executor.run(FusedToneMapPlan(params), src, out, masks)
        np.testing.assert_array_equal(masks, want_masks)
        np.testing.assert_array_equal(out, want)

    # Both band-kernel classes run this property (the Numpy subclass
    # inherits it), so hypothesis sees two executors of one function.
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.differing_executors],
    )
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


@pytest.mark.usefixtures("numpy_kernels")
class TestToleranceContractNumpy(TestToleranceContract):
    """The same contract on the NumPy band kernels."""


class TestPlaneRegime:
    """taps >= fused_fft_min_taps: bit-identical to staged ``run_stack``.

    Every case runs under a profile pinned at :data:`PLANE_MIN_TAPS`."""

    @pytest.fixture(autouse=True)
    def _plane_profile(self):
        with planner.override(fused_fft_min_taps=PLANE_MIN_TAPS):
            yield

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
        assert plan.h_method() == "fft"  # suite invariant
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
        mapper = BatchToneMapper(params, plan=_plan(params, threads=2))
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


@pytest.mark.usefixtures("numpy_kernels")
class TestPlaneRegimeNumpy(TestPlaneRegime):
    """The plane regime on the NumPy band kernels."""


class TestBandKernels:
    """The compiled band library: selection, build, cache and fallback."""

    def test_compiled_kernels_in_use_where_a_compiler_is_on_path(self):
        # A broken build must not fall back silently on a host that can
        # compile: CI runs the bit-identity suite on the C kernels.  Runs
        # whose arrays the C loops cannot index take the NumPy passes,
        # which raise NumPy's errors (a read-only out).
        if band_kernels._compiler() is None:
            pytest.skip("no C compiler on PATH")
        compiled = band_kernels.compiled_kernels()
        assert compiled is not None, "the band library did not build or load"
        stack = _stack((1, 8, 8))
        assert band_kernels.select(stack, np.empty_like(stack), None) is compiled
        strided = np.empty((1, 8, 16), np.float32)[:, :, ::2]
        assert band_kernels.select(stack, strided, None) is band_kernels.NUMPY
        float16 = np.empty(stack.shape, np.float16)
        assert band_kernels.select(stack, float16, None) is band_kernels.NUMPY
        frozen = np.empty_like(stack)
        frozen.flags.writeable = False
        assert band_kernels.select(stack, frozen, None) is band_kernels.NUMPY
        with FusedExecutor(threads=1) as executor, pytest.raises(ValueError):
            executor.run(FusedToneMapPlan(FOLDED_PARAMS[0]), stack, frozen)

    def test_no_compiler_falls_back_with_identical_outputs(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("PATH", str(tmp_path))  # no cc, gcc or clang
        monkeypatch.setattr(band_kernels, "_resolved", False)
        monkeypatch.setattr(band_kernels, "_compiled", None)
        assert band_kernels.compiled_kernels() is None
        params = FOLDED_PARAMS[0]
        for shape in [(2, 33, 47), (2, 30, 24, 3)]:
            stack = _stack(shape, seed=2)
            out = np.empty(shape)
            assert band_kernels.select(stack, out, None) is band_kernels.NUMPY
            want, want_masks = _staged(params, stack)
            got, got_masks, _ = _fused(params, stack, threads=2)
            np.testing.assert_array_equal(got_masks, want_masks)
            np.testing.assert_array_equal(got, want)

    def test_first_use_loads_once_across_threads(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor as TPE

        loads = []
        library = object()

        def slow_load():
            loads.append(1)
            time.sleep(0.05)  # hold the lock while the other threads arrive
            return library

        monkeypatch.setattr(band_kernels, "_resolved", False)
        monkeypatch.setattr(band_kernels, "_compiled", None)
        monkeypatch.setattr(band_kernels, "_load", slow_load)
        with TPE(max_workers=8) as pool:
            got = list(pool.map(lambda _: band_kernels.compiled_kernels(), range(8)))
        assert loads == [1]
        assert all(kernels is library for kernels in got)

    def test_failed_build_leaves_nothing_behind(self, monkeypatch, tmp_path):
        broken = tmp_path / "cc"
        broken.write_text("#!/bin/sh\nexit 1\n")
        broken.chmod(0o755)
        cache = tmp_path / "cache"
        monkeypatch.setattr(band_kernels, "_compiler", lambda: str(broken))
        monkeypatch.setattr(band_kernels, "_cache_dirs", lambda: iter([cache]))
        assert band_kernels._load() is None
        assert list(cache.iterdir()) == []  # the temporary file is gone

    def test_cache_is_private_and_reused(self, monkeypatch, tmp_path):
        if band_kernels._compiler() is None:
            pytest.skip("no C compiler on PATH")
        cache = tmp_path / "cache"
        monkeypatch.setattr(band_kernels, "_cache_dirs", lambda: iter([cache]))
        assert band_kernels._load() is not None
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        (library,) = cache.iterdir()  # published whole: no temp file left
        assert library.name.startswith("band_kernels-")
        built = library.stat().st_mtime_ns
        assert band_kernels._load() is not None
        assert library.stat().st_mtime_ns == built  # loaded, not rebuilt

    def test_shared_directories_and_files_are_refused(
        self, monkeypatch, tmp_path
    ):
        shared = tmp_path / "shared"
        shared.mkdir()
        shared.chmod(0o777)
        assert not band_kernels._private_dir(shared)
        monkeypatch.setattr(band_kernels, "_cache_dirs", lambda: iter([shared]))
        assert band_kernels._cache_dir() is None
        planted = tmp_path / "lib.so"
        planted.write_bytes(b"")
        planted.chmod(0o666)
        assert not band_kernels._owned_file(planted)
        assert os.path.exists(planted)

    @pytest.mark.parametrize("width", [1, 7, 15, 16, 17, 40, 130])
    @pytest.mark.parametrize("radius", [1, 6, 48])
    @pytest.mark.parametrize("color", [False, True], ids=["gray", "rgb"])
    def test_ring_passes_match_numpy(self, width, radius, color):
        # The compiled ring passes against the NumPy reference, bit for
        # bit: 16-column blocks with a tail (17, 40, 130), frames
        # narrower than one block (1, 7, 15), a radius wider than the
        # 21-row frame (48), two fills at different ring offsets, and a
        # ring whose rows are padded past the width.
        compiled = band_kernels.compiled_kernels()
        if compiled is None:
            pytest.skip("the band library is not available")
        coeffs = GaussianKernel(
            sigma=max(radius / 3.0, 0.5), radius=radius
        ).coefficients
        band = 9
        cap = band + 2 * radius
        stride = _ring_stride(width)
        assert stride >= width and stride % 16 == 8  # odd cache lines
        shape = (1, 21, width) + ((3,) if color else ())
        plane32 = _stack(shape, seed=width + radius)[0]
        results = []
        for kernels in (compiled, band_kernels.NUMPY):
            ws = _Workspace()
            ring = np.full((cap, stride), np.nan)
            padded = np.empty((cap, width + 2 * radius))
            rgb = np.empty((cap, width, 3)) if color else None
            vert = np.empty((band, width))
            half = cap // 2
            for dest, n in ((0, half), (half, cap - half)):
                kernels.horizontal(
                    ws, plane32, np.float32(1.5), dest - radius, n, padded,
                    rgb, coeffs, ring, dest,
                )
            kernels.vertical(ws, ring, coeffs, band, vert)
            assert np.isnan(ring[:, width:]).all()  # padding untouched
            results.append((ring[:, :width], vert))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "shape", ODD_SHAPES, ids=["x".join(map(str, s)) for s in ODD_SHAPES]
    )
    @pytest.mark.parametrize("sigma", [0.5, 2.0, 16.0])
    def test_ring_runs_match_numpy(self, monkeypatch, shape, sigma):
        # Whole fused runs, masks included: the compiled ring equals the
        # NumPy ring bit for bit, at sigma 16 too, where both sit
        # within 1e-9 of the staged FFT.
        if band_kernels.compiled_kernels() is None:
            pytest.skip("the band library is not available")
        params = ToneMapParams(sigma=sigma)
        assert FusedToneMapPlan(params).h_method() == "folded"
        stack = _stack(shape, seed=len(shape))
        compiled = _fused(params, stack, threads=2, band_bytes=1 << 12)
        monkeypatch.setattr(band_kernels, "compiled_kernels", lambda: None)
        reference = _fused(params, stack, threads=2, band_bytes=1 << 12)
        for got, want in zip(compiled[:2], reference[:2]):
            np.testing.assert_array_equal(got, want)

    def test_special_values_bit_for_bit(self):
        # NaN, signed zeros, infinities and values around epsilon through
        # the three epilogue kernels: compare the raw bits, which
        # assert_array_equal would not (it equates -0.0 and 0.0).
        compiled = band_kernels.compiled_kernels()
        if compiled is None:
            pytest.skip("the band library is not available")
        # eps is a float32 value, so 1.5 * eps / 1.5 ties it exactly.
        eps = 2.0**-40
        special = np.array(
            [np.nan, -0.0, 0.0, -1.0, 2.0, 1.0, 0.5, -np.inf, np.inf,
             1e-13, 1e-12, 5e-324, 0.25, -np.nan, 0.999, 1.5 * eps],
        )
        blurred = np.resize(special, (4, 12))
        src32 = np.resize(special.astype(np.float32), (4, 12, 3))
        src32[1] = src32[1, ::-1]

        def epilogue(kernels, color):
            mask = np.empty((4, 12))
            expo = np.empty((4, 12))
            kernels.pre(blurred, mask, expo, 0.75)
            shape = (4, 12, 3) if color else (4, 12)
            source = src32 if color else np.ascontiguousarray(src32[..., 0])
            oband = np.empty(shape)
            black = np.zeros(shape, bool)
            exponent = kernels.mid(
                _Workspace(), 4, source, np.float32(1.5), eps, expo, oband,
                black,
            )
            exponent = np.broadcast_to(exponent, shape).copy()
            outs = []
            for dtype in (np.float32, np.float64):
                dest = np.empty(shape, dtype)
                kernels.post(oband.copy(), black, AdjustParams(0.1, 1.3), dest)
                outs.append(dest)
            return mask, expo, oband, black, exponent, *outs

        for color in (False, True):
            for got, want in zip(
                epilogue(compiled, color), epilogue(band_kernels.NUMPY, color)
            ):
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_array_equal(
                    got.view(np.uint8), want.view(np.uint8)
                )


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
        # without bound: beyond POOLED_GEOMETRIES distinct geometries
        # the LRU geometry's workspaces are evicted, and the
        # cumulative allocation counter stays monotonic across that.
        params = ToneMapParams(sigma=2.0, radius=6)
        plan = FusedToneMapPlan(params)
        with FusedExecutor(threads=2) as executor:
            for step in range(POOLED_GEOMETRIES + 4):
                width = 16 + 2 * step
                stack = _stack((1, 24, width), seed=step)
                executor.run(plan, stack, np.empty_like(stack))
            assert len(executor._free) <= POOLED_GEOMETRIES
            assert (
                len(executor._workspaces)
                <= 2 * POOLED_GEOMETRIES
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

        params = ToneMapParams(sigma=2.0, radius=6)
        plan = FusedToneMapPlan(params)
        shapes = [
            (1, 24, 16 + 2 * i)
            for i in range(POOLED_GEOMETRIES + 4)
        ]
        stacks = [_stack(s, seed=i) for i, s in enumerate(shapes)]
        with FusedExecutor(threads=2) as executor:
            def run_one(stack):
                executor.run(plan, stack, np.empty_like(stack))
            with TPE(max_workers=len(stacks)) as pool:
                for _ in range(4):
                    list(pool.map(run_one, stacks))
            assert len(executor._free) <= POOLED_GEOMETRIES

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
        with planner.override(
            fused_fft_min_taps=PLANE_MIN_TAPS
        ), FusedExecutor(threads=1) as executor:
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
        with planner.override(
            fused_fft_min_taps=PLANE_MIN_TAPS
        ), FusedExecutor(threads=1) as executor:
            assert plan.h_method() == "fft"
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

        params = ToneMapParams(sigma=2.0, radius=6)
        service = ToneMapService(params, plan=_plan(params, threads=2))
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
        params = ToneMapParams(sigma=2.0, radius=6)
        mapper = BatchToneMapper(params, plan=_plan(params, threads=2))
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
            FusedToneMapPlan(params)
        # A mapper never builds one for such params: the fused plan is
        # ignored and the custom blur runs staged.
        assert not BatchToneMapper(params, plan=_plan(params)).fused

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

    def test_threads_default_is_cpu_count(self, monkeypatch):
        import os

        # The retired REPRO_FUSED_THREADS variable is no longer read.
        monkeypatch.setenv("REPRO_FUSED_THREADS", "3")
        with FusedExecutor() as executor:
            assert executor.threads == (os.cpu_count() or 1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        with FusedExecutor() as executor:
            assert executor.threads == 1

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
        got = BatchToneMapper(
            self.PARAMS, plan=_plan(self.PARAMS, threads=2)
        ).run(images)
        np.testing.assert_array_equal(got.masks, want.masks)
        for g, w in zip(got.outputs, want.outputs):
            np.testing.assert_array_equal(g.pixels, w.pixels)
            assert g.name == w.name
        assert got.pixels == want.pixels

    def test_shard_workers_fused_bit_identical(self, run_materialized):
        stack = np.stack([image.pixels for image in self._scenes(4, size=24)])
        want = BatchToneMapper(self.PARAMS).run_stack(stack).astype(np.float32)
        with ShardPool(
            self.PARAMS, shards=2, plan=_plan(self.PARAMS)
        ) as pool:
            got = run_materialized(pool, stack)
        np.testing.assert_array_equal(got, want)

    def test_shard_fused_threads_default_to_one(self):
        # Each worker process running the plan's cpu_count() fused
        # threads would oversubscribe the host shards-fold; shard
        # workers run one thread each, the in-process mapper the plan's.
        from repro.runtime import shard

        plan = _plan(self.PARAMS, threads=3)
        shard._init_worker(self.PARAMS, plan)
        try:
            assert shard._WORKER_MAPPER._engine.threads == 1
        finally:
            shard._WORKER_MAPPER.close()
            shard._WORKER_MAPPER = None
        mapper = BatchToneMapper(self.PARAMS, plan=plan)
        try:
            assert mapper._engine.threads == 3
        finally:
            mapper.close()

    def test_fused_plan_yields_to_fixed_blur_in_shards(self, run_materialized):
        # The float plan reaches the workers with fixed-point params:
        # each worker's mapper runs the fixed blur staged, bit-identical.
        from dataclasses import replace

        from repro.tonemap.fixed_blur import make_fixed_blur_fn

        params = replace(self.PARAMS, blur_fn=make_fixed_blur_fn())
        stack = np.stack([image.pixels for image in self._scenes(4, size=24)])
        want = BatchToneMapper(params).run_stack(stack).astype(np.float32)
        with ShardPool(params, shards=2, plan=_plan(self.PARAMS)) as pool:
            got = run_materialized(pool, stack)
        np.testing.assert_array_equal(got, want)

    def test_service_fused_matches_staged(self):
        images = self._scenes(5, size=24)
        with ToneMapService(self.PARAMS, batch_size=2) as service:
            want = service.map_many(images)
        with ToneMapService(
            self.PARAMS, batch_size=2, plan=_plan(self.PARAMS, threads=2)
        ) as service:
            got = service.map_many(images)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.pixels, w.pixels)

    def test_ingestor_over_fused_sharded_service(self):
        from repro.runtime import ToneMapIngestor

        images = self._scenes(6, size=24)
        want = BatchToneMapper(self.PARAMS).run(images).outputs
        with ToneMapService(
            self.PARAMS, batch_size=3, shards=2, plan=_plan(self.PARAMS)
        ) as service:
            with ToneMapIngestor(service, max_delay_ms=5.0) as ingestor:
                futures = [ingestor.submit(image) for image in images]
                got = [future.result(timeout=60) for future in futures]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.pixels, w.pixels)
