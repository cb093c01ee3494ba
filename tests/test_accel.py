"""Tests for repro.accel: geometry, line buffer, specs, variants."""

import numpy as np
import pytest

from repro.accel import (
    VARIANT_KEYS,
    BlurGeometry,
    LineBuffer,
    ShiftWindow,
    get_variant,
    make_variants,
    naive_offload_kernel,
    streaming_blur_kernel,
    streaming_blur_plane_scalar,
    streaming_pragmas,
)
from repro.errors import FlowError, ToneMapError
from repro.hls import synthesize
from repro.hls.ir import Storage
from repro.tonemap.gaussian import GaussianKernel, separable_blur

GEOM = BlurGeometry(height=64, width=64, radius=4, sigma=4 / 3.0)


class TestGeometry:
    def test_defaults_match_paper(self):
        geom = BlurGeometry()
        assert geom.pixels == 1024 * 1024
        assert geom.taps == 57

    def test_kernel_derivation(self):
        k = GEOM.kernel()
        assert k.radius == 4
        assert k.taps == 9

    def test_validation(self):
        with pytest.raises(FlowError):
            BlurGeometry(height=4, width=64)
        with pytest.raises(FlowError):
            BlurGeometry(radius=0)
        with pytest.raises(FlowError):
            BlurGeometry(element_bits=24)
        with pytest.raises(FlowError):
            BlurGeometry(height=16, width=16, radius=10)


class TestLineBuffer:
    def test_column_returns_recent_rows(self):
        lb = LineBuffer(rows=3, width=4)
        for value in (1.0, 2.0, 3.0):
            lb.fill_row(np.full(4, value))
        np.testing.assert_array_equal(lb.column(0), [1.0, 2.0, 3.0])

    def test_rotation_drops_oldest(self):
        lb = LineBuffer(rows=2, width=2)
        lb.fill_row(np.array([1.0, 1.0]))
        lb.fill_row(np.array([2.0, 2.0]))
        lb.fill_row(np.array([3.0, 3.0]))
        np.testing.assert_array_equal(lb.column(0), [2.0, 3.0])

    def test_insert_single_pixel(self):
        lb = LineBuffer(rows=2, width=3)
        lb.start_row()
        lb.insert(1, 9.0)
        assert lb.column(1)[-1] == 9.0

    def test_bounds_checked(self):
        lb = LineBuffer(rows=2, width=3)
        with pytest.raises(ToneMapError):
            lb.column(3)
        with pytest.raises(ToneMapError):
            lb.insert(-1, 0.0)
        with pytest.raises(ToneMapError):
            lb.fill_row(np.zeros(5))

    def test_invalid_shape(self):
        with pytest.raises(ToneMapError):
            LineBuffer(rows=0, width=4)


class TestShiftWindow:
    def test_shift_order(self):
        w = ShiftWindow(3)
        for value in (1.0, 2.0, 3.0, 4.0):
            w.shift_in(value)
        np.testing.assert_array_equal(w.values, [2.0, 3.0, 4.0])

    def test_dot(self):
        w = ShiftWindow(3)
        for value in (1.0, 2.0, 3.0):
            w.shift_in(value)
        assert w.dot(np.array([1.0, 1.0, 1.0])) == 6.0

    def test_dot_shape_checked(self):
        w = ShiftWindow(3)
        with pytest.raises(ToneMapError):
            w.dot(np.ones(4))

    def test_values_read_only(self):
        w = ShiftWindow(3)
        with pytest.raises(ValueError):
            w.values[0] = 1.0


class TestStreamingBlur:
    def test_matches_batch_reference(self):
        rng = np.random.default_rng(8)
        plane = rng.uniform(0, 1, (20, 26))
        kernel = GaussianKernel(sigma=1.5, radius=3)
        streamed = streaming_blur_plane_scalar(plane, kernel)
        batch = separable_blur(plane, kernel)
        np.testing.assert_allclose(streamed, batch, atol=1e-12)

    def test_asymmetric_image(self):
        rng = np.random.default_rng(9)
        plane = rng.uniform(0, 1, (12, 33))
        kernel = GaussianKernel(sigma=1.0, radius=2)
        np.testing.assert_allclose(
            streaming_blur_plane_scalar(plane, kernel),
            separable_blur(plane, kernel),
            atol=1e-12,
        )

    def test_requires_2d(self):
        with pytest.raises(ToneMapError):
            streaming_blur_plane_scalar(
                np.zeros(8), GaussianKernel(sigma=1.0)
            )


class TestKernelSpecs:
    def test_naive_kernel_structure(self):
        kernel = naive_offload_kernel(GEOM)
        assert kernel.array("src").storage is Storage.EXTERNAL
        names = [l.name for l in kernel.walk()]
        assert "hpass_taps" in names and "vpass_taps" in names

    def test_streaming_kernel_structure(self):
        kernel = streaming_blur_kernel(GEOM)
        assert kernel.array("linebuf").storage is Storage.BRAM
        assert kernel.array("linebuf").depth == GEOM.taps * GEOM.width
        assert kernel.array("in_stream").storage is Storage.STREAM

    def test_fixed_kernel_is_16bit_and_packed(self):
        kernel = streaming_blur_kernel(GEOM, fixed=True)
        assert kernel.array("linebuf").width_bits == 16
        assert kernel.array("linebuf").packing_factor == 2
        assert kernel.args[0].width_bits == 16

    def test_pragma_set(self):
        assert streaming_pragmas(False) == []
        names = {type(p).__name__ for p in streaming_pragmas(True)}
        assert names == {"PipelinePragma", "ArrayPartitionPragma"}


class TestVariants:
    def test_registry_complete_and_ordered(self):
        variants = make_variants(GEOM)
        assert tuple(variants) == VARIANT_KEYS

    def test_sw_variant_has_no_kernel(self):
        assert get_variant("sw", GEOM).kernel is None

    def test_hw_variants_synthesize(self):
        for key in ("marked_hw", "sequential", "pragmas", "fxp"):
            variant = get_variant(key, GEOM)
            design = synthesize(variant.kernel, pragmas=variant.pragmas)
            assert design.total_cycles > 0, key

    def test_fxp_ii_beats_float_ii(self):
        flt = get_variant("pragmas", GEOM)
        fxp = get_variant("fxp", GEOM)
        d_flt = synthesize(flt.kernel, pragmas=flt.pragmas)
        d_fxp = synthesize(fxp.kernel, pragmas=fxp.pragmas)
        assert d_fxp.loop_ii("pixels") < d_flt.loop_ii("pixels")

    def test_functional_outputs_close_across_variants(self):
        rng = np.random.default_rng(10)
        plane = rng.uniform(0, 1, (32, 32))
        kernel = GEOM.kernel()
        reference = separable_blur(plane, kernel)
        for key in VARIANT_KEYS:
            out = get_variant(key, GEOM).functional(plane, kernel)
            # FxP truncates at 10 fraction bits (ap_fixed<16,6>): allow a
            # few LSB of accumulated truncation bias across two passes.
            tolerance = 1e-9 if key != "fxp" else 4 * 2.0**-10
            assert np.max(np.abs(out - reference)) < tolerance, key

    def test_unknown_variant(self):
        with pytest.raises(FlowError):
            get_variant("ghost", GEOM)
