"""Tests for repro.tonemap.masking and repro.tonemap.adjust."""

import numpy as np
import pytest

from repro.errors import ToneMapError
from repro.tonemap import (
    AdjustParams,
    MaskingParams,
    adjust_brightness_contrast,
    auto_contrast,
    masking_exponent,
    nonlinear_masking,
)


class TestMaskingExponent:
    def test_midgray_mask_is_identity(self):
        exp = masking_exponent(np.full((4, 4), 0.5))
        np.testing.assert_allclose(exp, 1.0)

    def test_bright_mask_raises_exponent(self):
        exp = masking_exponent(np.full((2, 2), 1.0))
        np.testing.assert_allclose(exp, 2.0)

    def test_dark_mask_lowers_exponent(self):
        exp = masking_exponent(np.full((2, 2), 0.0))
        np.testing.assert_allclose(exp, 0.5)

    def test_strength_scales_range(self):
        strong = masking_exponent(np.full((1, 1), 1.0), MaskingParams(strength=2.0))
        assert strong[0, 0] == pytest.approx(4.0)

    def test_zero_strength_disables(self):
        exp = masking_exponent(
            np.random.default_rng(0).uniform(0, 1, (4, 4)),
            MaskingParams(strength=0.0),
        )
        np.testing.assert_allclose(exp, 1.0)

    def test_out_of_range_mask_rejected(self):
        with pytest.raises(ToneMapError):
            masking_exponent(np.array([[1.5]]))
        with pytest.raises(ToneMapError):
            masking_exponent(np.array([[-0.2]]))

    def test_negative_strength_rejected(self):
        with pytest.raises(ToneMapError):
            MaskingParams(strength=-1.0)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ToneMapError):
            MaskingParams(epsilon=0.0)
        with pytest.raises(ToneMapError):
            MaskingParams(epsilon=0.5)


class TestNonlinearMasking:
    def test_dark_pixels_brighten_under_dark_mask(self):
        # Paper: "dark zones will become brighter".
        img = np.full((4, 4), 0.1)
        mask = np.full((4, 4), 0.1)
        out = nonlinear_masking(img, mask)
        assert np.all(out > img)

    def test_bright_pixels_darken_under_bright_mask(self):
        # Paper: "bright zones will become darker".
        img = np.full((4, 4), 0.9)
        mask = np.full((4, 4), 0.9)
        out = nonlinear_masking(img, mask)
        assert np.all(out < img)

    def test_output_unit_range(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (8, 8))
        mask = rng.uniform(0, 1, (8, 8))
        out = nonlinear_masking(img, mask)
        assert out.min() >= 0.0
        assert out.max() <= 1.0

    def test_black_stays_black(self):
        img = np.zeros((4, 4))
        mask = np.full((4, 4), 0.2)
        out = nonlinear_masking(img, mask)
        np.testing.assert_array_equal(out, 0.0)

    def test_white_stays_white(self):
        img = np.ones((4, 4))
        mask = np.full((4, 4), 0.7)
        out = nonlinear_masking(img, mask)
        np.testing.assert_allclose(out, 1.0)

    def test_monotone_in_input(self):
        # Order of pixel values is preserved under a shared mask.
        img = np.linspace(0.01, 0.99, 64).reshape(8, 8)
        mask = np.full((8, 8), 0.3)
        out = nonlinear_masking(img, mask)
        assert np.all(np.diff(out.ravel()) > 0)

    def test_rgb_shares_luminance_mask(self):
        img = np.stack([np.full((4, 4), 0.25)] * 3, axis=2)
        mask = np.full((4, 4), 0.25)
        out = nonlinear_masking(img, mask)
        assert out.shape == img.shape
        # All channels get the same exponent.
        np.testing.assert_allclose(out[:, :, 0], out[:, :, 1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ToneMapError):
            nonlinear_masking(np.ones((4, 4)), np.ones((4, 5)))

    def test_3d_mask_rejected(self):
        with pytest.raises(ToneMapError):
            nonlinear_masking(np.ones((4, 4, 3)), np.ones((4, 4, 3)))

    def test_unnormalized_image_rejected(self):
        with pytest.raises(ToneMapError, match="normalized"):
            nonlinear_masking(np.full((4, 4), 2.0), np.full((4, 4), 0.5))


class TestAdjust:
    def test_identity(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, (8, 8))
        out = adjust_brightness_contrast(img, AdjustParams())
        np.testing.assert_allclose(out, img)

    def test_brightness_shift(self):
        out = adjust_brightness_contrast(
            np.full((2, 2), 0.5), AdjustParams(brightness=0.2)
        )
        np.testing.assert_allclose(out, 0.7)

    def test_contrast_expands_around_midgray(self):
        img = np.array([[0.25, 0.75]])
        out = adjust_brightness_contrast(img, AdjustParams(contrast=2.0))
        np.testing.assert_allclose(out, [[0.0, 1.0]])

    def test_contrast_pivot_fixed(self):
        out = adjust_brightness_contrast(
            np.full((2, 2), 0.5), AdjustParams(contrast=3.0)
        )
        np.testing.assert_allclose(out, 0.5)

    def test_clamped_to_unit_range(self):
        img = np.array([[0.0, 1.0]])
        out = adjust_brightness_contrast(img, AdjustParams(brightness=0.5))
        assert out.max() <= 1.0

    def test_invalid_params(self):
        with pytest.raises(ToneMapError):
            AdjustParams(brightness=2.0)
        with pytest.raises(ToneMapError):
            AdjustParams(contrast=0.0)

    def test_auto_contrast_stretches(self):
        img = np.linspace(0.4, 0.6, 100).reshape(10, 10)
        out = auto_contrast(img, 0.0, 100.0)
        assert out.min() == pytest.approx(0.0)
        assert out.max() == pytest.approx(1.0)

    def test_auto_contrast_flat_image(self):
        img = np.full((10, 10), 0.5)
        out = auto_contrast(img)
        np.testing.assert_allclose(out, 0.5)

    def test_auto_contrast_bad_percentiles(self):
        with pytest.raises(ToneMapError):
            auto_contrast(np.ones((4, 4)), 90.0, 10.0)
