"""Tests for the cross-scene quality robustness study."""

import pytest

from repro.experiments.robustness import quality_robustness
from repro.image.synthetic import SCENE_BUILDERS

STUDY = quality_robustness(size=128)


class TestQualityRobustness:
    def test_all_scenes_evaluated(self):
        assert {r.scene for r in STUDY.results} == set(SCENE_BUILDERS)

    def test_every_scene_in_lossy_compression_band(self):
        # The arithmetic, not the content, sets the quality class: every
        # scene must land in the paper's band.
        assert STUDY.min_psnr_db >= 50.0

    def test_ssim_near_one_everywhere(self):
        assert min(r.ssim for r in STUDY.results) >= 0.99

    def test_spread_is_bounded(self):
        # Content moves PSNR by several dB (edges vs smooth ramps), but
        # not by an order of magnitude.
        assert STUDY.max_psnr_db - STUDY.min_psnr_db < 30.0

    def test_comparison_is_real_on_every_scene(self):
        # No scene may compare bit-identical outputs.
        for result in STUDY.results:
            assert result.psnr_db < 120.0, result.scene

    def test_subset_selection(self):
        study = quality_robustness(size=64, scenes=["gradient"])
        assert [r.scene for r in study.results] == ["gradient"]
        with pytest.raises(KeyError):
            study.result("checker")

    def test_render(self):
        text = STUDY.render()
        assert "ROBUSTNESS" in text
        assert "window_interior" in text
