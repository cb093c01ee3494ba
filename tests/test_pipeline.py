"""Tests for repro.tonemap.pipeline and repro.tonemap.operators."""

import numpy as np
import pytest

from repro.errors import ToneMapError
from repro.image import HDRImage, SceneParams, window_interior_scene
from repro.tonemap import (
    GLOBAL_OPERATORS,
    AdjustParams,
    MaskingParams,
    ToneMapParams,
    ToneMapper,
    gamma_operator,
    log_operator,
    reinhard_global,
    tone_map,
)

SCENE = window_interior_scene(SceneParams(height=96, width=96))


class TestToneMapParams:
    def test_default_kernel(self):
        params = ToneMapParams(sigma=4.0)
        k = params.kernel()
        assert k.sigma == 4.0
        assert k.radius == 12

    def test_explicit_radius(self):
        params = ToneMapParams(sigma=4.0, radius=5)
        assert params.kernel().taps == 11


class TestToneMapper:
    def test_stages_present(self):
        result = ToneMapper(ToneMapParams(sigma=4.0)).run(SCENE)
        stages = result.stages
        assert set(stages) == {"source", "normalized", "mask", "masked", "output"}

    def test_output_unit_range(self):
        result = ToneMapper(ToneMapParams(sigma=4.0)).run(SCENE)
        assert result.output.min_value >= 0.0
        assert result.output.max_value <= 1.0

    def test_normalized_stage_peak_one(self):
        result = ToneMapper(ToneMapParams(sigma=4.0)).run(SCENE)
        assert result.normalized.max_value == pytest.approx(1.0)

    def test_mask_is_blurred_luminance(self):
        mapper = ToneMapper(ToneMapParams(sigma=4.0))
        result = mapper.run(SCENE)
        from repro.tonemap import separable_blur

        expected = separable_blur(result.normalized.luminance(), mapper.kernel)
        np.testing.assert_allclose(result.mask, np.clip(expected, 0, 1))

    def test_dark_zones_brighter_bright_zones_darker(self):
        # The paper's headline behaviour (section II).
        result = ToneMapper(
            ToneMapParams(sigma=4.0, adjust=AdjustParams())  # identity step 4
        ).run(SCENE)
        norm = np.asarray(result.normalized.pixels, dtype=np.float64)
        out = np.asarray(result.output.pixels, dtype=np.float64)
        dark = (norm > 1e-4) & (norm < 0.05)
        bright = norm > 0.6
        assert out[dark].mean() > norm[dark].mean()
        assert out[bright].mean() < norm[bright].mean()

    def test_contrast_ratio_reduced(self):
        # Tone mapping compresses dynamic range toward the display's.
        result = ToneMapper(
            ToneMapParams(sigma=4.0, adjust=AdjustParams())
        ).run(SCENE)
        norm_lum = result.normalized.luminance()
        out_lum = result.output.luminance()
        floor = 1e-6
        ratio_in = norm_lum.max() / max(np.percentile(norm_lum, 5.0), floor)
        ratio_out = out_lum.max() / max(np.percentile(out_lum, 5.0), floor)
        assert ratio_out < ratio_in

    def test_custom_blur_fn_invoked(self):
        calls = []

        def fake_blur(plane, kernel):
            calls.append(kernel.taps)
            return np.full_like(plane, 0.5)

        result = ToneMapper(ToneMapParams(sigma=4.0, blur_fn=fake_blur)).run(SCENE)
        assert calls, "blur_fn was not invoked"
        np.testing.assert_allclose(result.mask, 0.5)

    def test_zero_strength_identity_up_to_adjust(self):
        params = ToneMapParams(
            sigma=4.0,
            masking=MaskingParams(strength=0.0),
            adjust=AdjustParams(),  # identity
        )
        result = ToneMapper(params).run(SCENE)
        np.testing.assert_allclose(
            np.asarray(result.output.pixels),
            np.asarray(result.normalized.pixels),
            atol=1e-6,
        )

    def test_gray_image_supported(self):
        gray = HDRImage(SCENE.luminance().astype(np.float32), name="gray")
        result = ToneMapper(ToneMapParams(sigma=4.0)).run(gray)
        assert not result.output.is_color

    def test_non_image_rejected(self):
        with pytest.raises(ToneMapError):
            ToneMapper().run(np.ones((4, 4)))

    def test_tone_map_convenience(self):
        out = tone_map(SCENE, ToneMapParams(sigma=4.0))
        assert isinstance(out, HDRImage)
        assert out.max_value <= 1.0

    def test_deterministic(self):
        a = tone_map(SCENE, ToneMapParams(sigma=4.0))
        b = tone_map(SCENE, ToneMapParams(sigma=4.0))
        assert a == b


class TestGlobalOperators:
    @pytest.mark.parametrize("name", sorted(GLOBAL_OPERATORS))
    def test_unit_range_output(self, name):
        out = GLOBAL_OPERATORS[name](SCENE)
        assert out.min_value >= 0.0
        assert out.max_value <= 1.0

    def test_gamma_brightens_midtones(self):
        img = HDRImage(np.full((4, 4), 0.25, dtype=np.float32))
        out = gamma_operator(img, gamma=2.2)
        assert out.pixels[0, 0] > 0.25

    def test_gamma_invalid(self):
        with pytest.raises(ToneMapError):
            gamma_operator(SCENE, gamma=0.0)

    def test_log_monotone(self):
        img = HDRImage(np.array([[1.0, 10.0, 100.0]], dtype=np.float32))
        out = log_operator(img)
        vals = out.pixels[0]
        assert vals[0] < vals[1] < vals[2]

    def test_log_invalid_scale(self):
        with pytest.raises(ToneMapError):
            log_operator(SCENE, scale=-2.0)

    def test_log_black_image(self):
        img = HDRImage(np.zeros((4, 4), dtype=np.float32))
        out = log_operator(img)
        assert out.max_value == 0.0

    def test_reinhard_compresses_highlights(self):
        # On gray input, output equals compressed luminance: L/(1+L) < 1.
        gray = HDRImage(SCENE.luminance().astype(np.float32), name="gray")
        out = reinhard_global(gray)
        assert out.max_value < 1.0
        # Color output is clipped to the displayable range.
        assert reinhard_global(SCENE).max_value <= 1.0

    def test_reinhard_black_image(self):
        img = HDRImage(np.zeros((4, 4), dtype=np.float32))
        assert reinhard_global(img).max_value == 0.0

    def test_reinhard_invalid_key(self):
        with pytest.raises(ToneMapError):
            reinhard_global(SCENE, key=0.0)

    def test_global_cannot_hold_both_ends_like_local_does(self):
        # The paper's motivation: a global curve lifts shadows only by
        # also lifting everything else.  Verify the local operator keeps
        # highlight detail (contrast inside the bright window region)
        # better than the log operator at equal shadow lift.
        local = ToneMapper(ToneMapParams(sigma=4.0, adjust=AdjustParams())).run(SCENE)
        global_out = log_operator(SCENE)
        lum = SCENE.luminance()
        bright = lum > 0.5 * lum.max()
        local_contrast = np.std(local.output.luminance()[bright])
        global_contrast = np.std(global_out.luminance()[bright])
        assert local_contrast > global_contrast
