"""Equivalence suite for the blur fast paths.

Covers the contracts stated in ``repro.tonemap.gaussian``'s performance
notes and ``repro.tonemap.fixed_blur``:

* folded/FFT float paths agree with the naive direct path within 1e-9;
* the folded fixed-point pass is **bit-exact** against the per-tap loop
  (the seed implementation, reproduced here as the reference);
* the row-vectorized streaming blur equals the batch reference to
  reassociation tolerance;
* the pure-integer TRN/RND ``FixedArray.cast`` narrowing matches the
  float64 narrowing path bit for bit.
"""

import numpy as np
import pytest

from repro.accel.linebuffer import streaming_blur_plane, streaming_blur_plane_scalar
from repro.errors import ToneMapError
from repro.fixedpoint.array import (
    FixedArray,
    _overflow_array,
    _quantize_scaled_array,
)
from repro.fixedpoint.format import FixedFormat, Overflow, Quant
from repro.tonemap.fixed_blur import (
    FixedBlurConfig,
    fixed_point_blur_batch,
    fixed_point_blur_plane,
    make_fixed_blur_fn,
)
from repro.planner.profile import DEFAULT_FFT_CROSSOVER_TAPS
from repro.tonemap.gaussian import (
    BLUR_METHODS,
    GaussianKernel,
    _select_method,
    blur_batch,
    separable_blur,
)

RNG = np.random.default_rng(99)
PLANE = RNG.uniform(0.0, 1.0, (48, 56))
KERNELS = [
    GaussianKernel(sigma=1.0, radius=2),
    GaussianKernel(sigma=4.0),          # 25 taps: at the FFT crossover
    GaussianKernel(sigma=7.0, radius=30),
]


class TestKernelCaching:
    def test_coefficients_computed_once(self):
        k = GaussianKernel(sigma=3.0)
        assert k.coefficients is k.coefficients

    def test_coefficients_read_only(self):
        k = GaussianKernel(sigma=3.0)
        with pytest.raises(ValueError):
            k.coefficients[0] = 1.0

    def test_equal_kernels_still_compare_equal(self):
        assert GaussianKernel(sigma=2.0) == GaussianKernel(sigma=2.0)
        assert hash(GaussianKernel(sigma=2.0)) == hash(GaussianKernel(sigma=2.0))


class TestFloatPathEquivalence:
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: f"taps{k.taps}")
    @pytest.mark.parametrize("method", ["folded", "fft", "auto"])
    def test_fast_paths_match_direct_within_contract(self, kernel, method):
        direct = separable_blur(PLANE, kernel, method="direct")
        fast = separable_blur(PLANE, kernel, method=method)
        assert np.max(np.abs(fast - direct)) < 1e-9

    def test_auto_dispatch_crosses_at_threshold(self):
        wide = GaussianKernel(sigma=16.0)
        narrow = GaussianKernel(sigma=1.0, radius=2)
        assert wide.taps >= DEFAULT_FFT_CROSSOVER_TAPS
        assert _select_method("auto", wide.taps) == "fft"
        assert _select_method("auto", narrow.taps) == "folded"

    def test_explicit_methods_pass_through(self):
        for method in BLUR_METHODS[1:]:
            assert _select_method(method, 97) == method

    def test_unknown_method_rejected(self):
        with pytest.raises(ToneMapError):
            separable_blur(PLANE, KERNELS[0], method="winograd")

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: f"taps{k.taps}")
    def test_batch_matches_per_plane(self, kernel):
        planes = RNG.uniform(0.0, 1.0, (3, 24, 31))
        batched = blur_batch(planes, kernel)
        for i in range(planes.shape[0]):
            np.testing.assert_array_equal(
                batched[i], separable_blur(planes[i], kernel)
            )

    def test_batch_requires_3d(self):
        with pytest.raises(ToneMapError):
            blur_batch(PLANE, KERNELS[0])

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: f"taps{k.taps}")
    def test_tiled_bit_identical_to_folded(self, kernel):
        folded = separable_blur(PLANE, kernel, method="folded")
        tiled = separable_blur(PLANE, kernel, method="tiled")
        np.testing.assert_array_equal(tiled, folded)

    def test_tiled_handles_fortran_ordered_stacks(self):
        # Regression: an F-ordered stack must not defeat the reshape-view
        # output trick (np.empty_like would have preserved F order, the
        # block writes would have landed in a throwaway copy, and the
        # result would have been uninitialized memory).
        planes = np.asfortranarray(RNG.uniform(0.0, 1.0, (3, 24, 31)))
        want = blur_batch(np.ascontiguousarray(planes), KERNELS[0],
                          method="folded")
        got = blur_batch(planes, KERNELS[0], method="tiled")
        np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# Fixed point: the seed per-tap implementation, kept verbatim as the
# bit-exactness oracle for the folded integer pass and the integer cast.
# ----------------------------------------------------------------------


def _seed_cast(arr: FixedArray, fmt: FixedFormat) -> np.ndarray:
    shift = fmt.frac_length - arr.fmt.frac_length
    assert shift < 0, "oracle only narrows"
    scaled = arr.raw.astype(np.float64) * (2.0**shift)
    return _overflow_array(_quantize_scaled_array(scaled, fmt.quant), fmt)


def _seed_fixed_blur(
    plane: np.ndarray, kernel: GaussianKernel, config: FixedBlurConfig
) -> np.ndarray:
    coeff_raws = config.quantized_coefficients(kernel)
    data = FixedArray.from_float(plane, config.data_fmt)

    def one_pass(raw: np.ndarray) -> np.ndarray:
        taps = coeff_raws.size
        radius = (taps - 1) // 2
        padded = np.pad(raw, ((0, 0), (radius, radius)), mode="edge")
        width = raw.shape[1]
        acc = np.zeros_like(raw, dtype=np.int64)
        for k in range(taps):
            acc += np.int64(coeff_raws[k]) * padded[:, k : k + width]
        return _seed_cast(
            FixedArray(acc, config.accumulator_fmt(taps)), config.data_fmt
        )

    horizontal = one_pass(data.raw)
    vertical = one_pass(np.ascontiguousarray(horizontal.T)).T
    return FixedArray(np.ascontiguousarray(vertical), config.data_fmt).to_float()


FIXED_CONFIGS = [
    FixedBlurConfig(),
    FixedBlurConfig(
        data_fmt=FixedFormat(16, 6, quant=Quant.TRN, overflow=Overflow.SAT),
        coeff_fmt=FixedFormat(
            16, 0, signed=False, quant=Quant.TRN, overflow=Overflow.SAT
        ),
        renormalize_coefficients=False,
    ),
    FixedBlurConfig(
        data_fmt=FixedFormat(8, 2, quant=Quant.RND, overflow=Overflow.SAT),
        coeff_fmt=FixedFormat(
            8, 0, signed=False, quant=Quant.RND, overflow=Overflow.SAT
        ),
    ),
    FixedBlurConfig(
        data_fmt=FixedFormat(32, 2, quant=Quant.RND, overflow=Overflow.SAT),
        coeff_fmt=FixedFormat(
            16, 0, signed=False, quant=Quant.RND, overflow=Overflow.SAT
        ),
    ),
]


class TestFixedPointBitExactness:
    @pytest.mark.parametrize(
        "config", FIXED_CONFIGS, ids=lambda c: str(c.data_fmt)
    )
    def test_folded_pass_bit_exact_vs_tap_loop(self, config):
        plane = RNG.uniform(0.0, 1.0, (40, 44))
        kernel = GaussianKernel(sigma=2.0, radius=6)
        np.testing.assert_array_equal(
            fixed_point_blur_plane(plane, kernel, config),
            _seed_fixed_blur(plane, kernel, config),
        )

    def test_wide_kernel_bit_exact(self):
        plane = RNG.uniform(0.0, 1.0, (32, 32))
        kernel = GaussianKernel(sigma=8.0)  # 49 taps
        np.testing.assert_array_equal(
            fixed_point_blur_plane(plane, kernel),
            _seed_fixed_blur(plane, kernel, FixedBlurConfig()),
        )

    def test_even_symmetric_taps_fail_loudly(self):
        # The pass geometry (radius on both sides) assumes odd taps, as
        # every GaussianKernel guarantees.  An even symmetric coefficient
        # array must not slip into the centre-fold and silently drop its
        # last tap; it falls through to the per-tap loop, whose padding
        # arithmetic rejects the shape.
        from repro.tonemap.fixed_blur import _fixed_pass_rows

        raw = np.arange(12, dtype=np.int64).reshape(2, 6)
        coeffs = np.array([3, 5, 5, 3], dtype=np.int64)
        with pytest.raises(ValueError):
            _fixed_pass_rows(raw, coeffs, FixedBlurConfig())

    def test_quantized_coefficients_cached_and_read_only(self):
        cfg = FixedBlurConfig()
        kernel = GaussianKernel(sigma=2.0, radius=6)
        a = cfg.quantized_coefficients(kernel)
        b = cfg.quantized_coefficients(kernel)
        assert a is b
        with pytest.raises(ValueError):
            a[0] = 1


class TestBatchedFixedPoint:
    """The (N, H, W) fixed-point path: bit-exact, never merely close."""

    @pytest.mark.parametrize(
        "config", FIXED_CONFIGS, ids=lambda c: str(c.data_fmt)
    )
    def test_batch_bit_exact_vs_per_plane(self, config):
        stack = RNG.uniform(0.0, 1.0, (4, 26, 31))
        kernel = GaussianKernel(sigma=2.0, radius=6)
        np.testing.assert_array_equal(
            fixed_point_blur_batch(stack, kernel, config),
            np.stack(
                [fixed_point_blur_plane(p, kernel, config) for p in stack]
            ),
        )

    def test_batch_bit_exact_vs_seed_tap_loop(self):
        stack = RNG.uniform(0.0, 1.0, (3, 22, 27))
        kernel = GaussianKernel(sigma=1.5, radius=4)
        config = FixedBlurConfig()
        np.testing.assert_array_equal(
            fixed_point_blur_batch(stack, kernel, config),
            np.stack([_seed_fixed_blur(p, kernel, config) for p in stack]),
        )

    def test_batch_vs_streaming_scalar_within_quantization(self):
        # The streaming scalar model is the float dataflow; the fixed-point
        # batch differs from it by exactly the quantization error the
        # hardware would exhibit (the paper's 66 dB PSNR regime), well
        # under 1e-3 on unit-range planes for the 16-bit formats.
        stack = RNG.uniform(0.0, 1.0, (2, 18, 21))
        kernel = GaussianKernel(sigma=1.5, radius=4)
        batched = fixed_point_blur_batch(stack, kernel)
        for plane, fixed in zip(stack, batched):
            reference = streaming_blur_plane_scalar(plane, kernel)
            assert np.max(np.abs(fixed - reference)) < 1e-3

    def test_single_image_batch_matches_plane(self):
        plane = RNG.uniform(0.0, 1.0, (17, 23))
        kernel = GaussianKernel(sigma=2.0, radius=5)
        np.testing.assert_array_equal(
            fixed_point_blur_batch(plane[np.newaxis], kernel)[0],
            fixed_point_blur_plane(plane, kernel),
        )

    def test_batch_requires_3d(self):
        with pytest.raises(ToneMapError):
            fixed_point_blur_batch(PLANE, KERNELS[0])

    def test_make_fixed_blur_fn_exposes_batch_path(self):
        config = FixedBlurConfig()
        fn = make_fixed_blur_fn(config)
        assert fn.config is config
        stack = RNG.uniform(0.0, 1.0, (2, 12, 15))
        kernel = GaussianKernel(sigma=1.0, radius=3)
        np.testing.assert_array_equal(
            fn.blur_batch(stack, kernel),
            fixed_point_blur_batch(stack, kernel, config),
        )


class TestIntegerCastEquivalence:
    @pytest.mark.parametrize("quant", [Quant.TRN, Quant.RND])
    @pytest.mark.parametrize("word_length", [20, 40, 50])
    def test_integer_narrowing_matches_float_path(self, quant, word_length):
        src = FixedFormat(word_length, word_length // 2)
        dst = FixedFormat(12, 4, quant=quant, overflow=Overflow.SAT)
        raws = RNG.integers(src.raw_min, src.raw_max, 4096, dtype=np.int64)
        arr = FixedArray(raws, src)
        np.testing.assert_array_equal(
            arr.cast(dst).raw, _seed_cast(arr, dst)
        )

    def test_negative_values_round_like_float_path(self):
        src = FixedFormat(24, 8)
        for quant in (Quant.TRN, Quant.RND):
            dst = FixedFormat(8, 4, quant=quant, overflow=Overflow.SAT)
            raws = np.arange(-5000, 5000, 7, dtype=np.int64)
            arr = FixedArray(raws, src)
            np.testing.assert_array_equal(
                arr.cast(dst).raw, _seed_cast(arr, dst)
            )


class TestStreamingVectorized:
    @pytest.mark.parametrize("shape", [(20, 26), (12, 33), (33, 12)])
    def test_matches_batch_reference(self, shape):
        plane = RNG.uniform(0.0, 1.0, shape)
        kernel = GaussianKernel(sigma=1.5, radius=3)
        np.testing.assert_allclose(
            streaming_blur_plane(plane, kernel),
            separable_blur(plane, kernel, method="direct"),
            atol=1e-9,
        )

    def test_wide_kernel_exceeding_plane(self):
        plane = RNG.uniform(0.0, 1.0, (16, 16))
        kernel = GaussianKernel(sigma=8.0)  # radius 24 > plane
        np.testing.assert_allclose(
            streaming_blur_plane(plane, kernel),
            separable_blur(plane, kernel, method="direct"),
            atol=1e-9,
        )

    def test_scalar_and_vectorized_agree(self):
        plane = RNG.uniform(0.0, 1.0, (14, 18))
        kernel = GaussianKernel(sigma=1.2, radius=4)
        np.testing.assert_allclose(
            streaming_blur_plane(plane, kernel),
            streaming_blur_plane_scalar(plane, kernel),
            atol=1e-12,
        )

    def test_vectorized_handles_512_quickly(self):
        import time

        plane = RNG.uniform(0.0, 1.0, (512, 512))
        kernel = GaussianKernel(sigma=16.0)
        start = time.perf_counter()
        out = streaming_blur_plane(plane, kernel)
        elapsed = time.perf_counter() - start
        assert out.shape == plane.shape
        assert elapsed < 1.0, f"512^2 streaming blur took {elapsed:.2f}s"
