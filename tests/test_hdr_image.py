"""Tests for repro.image.hdr and repro.image.color."""

import numpy as np
import pytest

from repro.errors import ImageError
from repro.image import HDRImage, gray_to_rgb, luminance, rgb_to_gray


def make_rgb(h=8, w=8, value=1.0):
    return HDRImage(np.full((h, w, 3), value, dtype=np.float32), name="t")


class TestConstruction:
    def test_gray(self):
        img = HDRImage(np.ones((4, 5), dtype=np.float32))
        assert img.height == 4
        assert img.width == 5
        assert img.channels == 1
        assert not img.is_color

    def test_rgb(self):
        img = make_rgb(4, 6)
        assert img.channels == 3
        assert img.is_color
        assert img.pixel_count == 24

    def test_single_channel_3d_squeezed(self):
        img = HDRImage(np.ones((4, 4, 1), dtype=np.float32))
        assert img.channels == 1

    def test_negative_rejected(self):
        with pytest.raises(ImageError):
            HDRImage(np.array([[-1.0, 0.0]]))

    def test_nan_rejected(self):
        with pytest.raises(ImageError):
            HDRImage(np.array([[np.nan, 0.0]]))

    def test_inf_rejected(self):
        with pytest.raises(ImageError):
            HDRImage(np.array([[np.inf, 0.0]]))

    def test_wrong_channel_count_rejected(self):
        with pytest.raises(ImageError):
            HDRImage(np.ones((4, 4, 2)))

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ImageError):
            HDRImage(np.ones(16))
        with pytest.raises(ImageError):
            HDRImage(np.ones((2, 2, 3, 1)))

    def test_empty_rejected(self):
        with pytest.raises(ImageError):
            HDRImage(np.ones((0, 4)))

    def test_pixels_immutable(self):
        img = make_rgb()
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 2.0

    def test_source_array_not_aliased(self):
        src = np.ones((4, 4), dtype=np.float32)
        img = HDRImage(src)
        src[0, 0] = 77.0
        assert img.pixels[0, 0] == 1.0

    def test_float32_conversion(self):
        img = HDRImage(np.ones((2, 2), dtype=np.float64))
        assert img.pixels.dtype == np.float32


class TestNormalization:
    def test_normalized_peak_is_one(self):
        img = HDRImage(np.array([[1.0, 4.0], [2.0, 0.5]], dtype=np.float32))
        norm = img.normalized()
        assert norm.max_value == 1.0
        np.testing.assert_allclose(norm.pixels, img.pixels / 4.0)

    def test_normalized_preserves_ratios(self):
        img = HDRImage(np.array([[10.0, 5.0]], dtype=np.float32))
        norm = img.normalized()
        assert norm.pixels[0, 1] == pytest.approx(0.5)

    def test_black_image_unchanged(self):
        img = HDRImage(np.zeros((3, 3), dtype=np.float32))
        norm = img.normalized()
        assert norm.max_value == 0.0

    def test_name_suffix(self):
        assert make_rgb().normalized().name.endswith(":normalized")


class TestLuminanceHelpers:
    def test_rec601_weights(self):
        img = HDRImage(np.ones((2, 2, 3), dtype=np.float32))
        np.testing.assert_allclose(img.luminance(), 1.0, atol=1e-6)

    def test_pure_channels(self):
        px = np.zeros((1, 3, 3), dtype=np.float32)
        px[0, 0, 0] = 1.0  # red
        px[0, 1, 1] = 1.0  # green
        px[0, 2, 2] = 1.0  # blue
        lum = luminance(px)
        np.testing.assert_allclose(lum[0], [0.299, 0.587, 0.114], atol=1e-6)

    def test_gray_pass_through(self):
        plane = np.random.default_rng(0).uniform(0, 1, (4, 4))
        np.testing.assert_allclose(luminance(plane), plane)

    def test_rgb_to_gray_requires_rgb(self):
        with pytest.raises(ImageError):
            rgb_to_gray(np.ones((4, 4)))

    def test_gray_to_rgb_shape(self):
        rgb = gray_to_rgb(np.ones((4, 5)))
        assert rgb.shape == (4, 5, 3)

    def test_gray_to_rgb_requires_2d(self):
        with pytest.raises(ImageError):
            gray_to_rgb(np.ones((4, 5, 3)))

    def test_luminance_bad_shape(self):
        with pytest.raises(ImageError):
            luminance(np.ones((2, 2, 4)))


class TestMisc:
    def test_with_name(self):
        img = make_rgb().with_name("other")
        assert img.name == "other"

    def test_map(self):
        img = HDRImage(np.full((2, 2), 2.0, dtype=np.float32))
        doubled = img.map(lambda p: p * 2)
        assert doubled.max_value == 4.0

    def test_equality(self):
        a = HDRImage(np.ones((2, 2), dtype=np.float32))
        b = HDRImage(np.ones((2, 2), dtype=np.float32))
        c = HDRImage(np.zeros((2, 2), dtype=np.float32))
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_same_shape(self):
        assert make_rgb(4, 4).same_shape(make_rgb(4, 4))
        assert not make_rgb(4, 4).same_shape(make_rgb(4, 5))

    def test_repr(self):
        text = repr(make_rgb(4, 6))
        assert "6x4" in text
        assert "RGB" in text
