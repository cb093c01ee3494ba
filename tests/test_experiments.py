"""Tests for repro.experiments: Table II, Figs. 5-8, workload, charts.

Shape assertions follow DESIGN.md's per-experiment criteria.
"""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.experiments import (
    PAPER_ENERGY,
    PAPER_TABLE2,
    make_paper_flow,
    paper_workload,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_table2,
)
from repro.experiments.ascii_chart import horizontal_bar_chart
from repro.power.rails import Rail

FLOW = make_paper_flow()
TABLE2 = run_table2(FLOW)
FIG6 = run_fig6(FLOW)
FIG7 = run_fig7(FLOW)
FIG8 = run_fig8(FLOW)


class TestWorkload:
    def test_paper_size(self):
        workload = paper_workload()
        assert workload.image.width == 1024
        assert workload.image.height == 1024
        assert workload.geometry.taps == 57

    def test_scaled_workload(self):
        workload = paper_workload(size=128)
        assert workload.image.width == 128
        assert workload.geometry.taps <= 2 * (128 // 8) + 1

    def test_params_match_geometry(self):
        workload = paper_workload()
        kernel = workload.params.kernel()
        assert kernel.radius == workload.geometry.radius


class TestTable2:
    def test_all_rows_present(self):
        assert [row.key for row in TABLE2.rows] == list(PAPER_TABLE2)

    def test_paper_columns_attached(self):
        row = TABLE2.row("sw")
        assert row.paper_blur_seconds == 7.29
        assert row.paper_total_seconds == 26.66

    def test_every_row_within_3x_of_paper(self):
        # Shape criterion: same order of magnitude everywhere.
        for row in TABLE2.rows:
            blur_ratio = row.blur_seconds / row.paper_blur_seconds
            total_ratio = row.total_seconds / row.paper_total_seconds
            assert 1 / 3 < blur_ratio < 3, row.key
            assert 1 / 3 < total_ratio < 3, row.key

    def test_headline_metrics(self):
        assert TABLE2.blur_speedup >= 10.0
        assert TABLE2.naive_slowdown >= 5.0

    def test_render(self):
        text = TABLE2.render()
        assert "TABLE II" in text
        assert "FlP to FxP conversion" in text
        assert "speed-up" in text


class TestFig5Quality:
    # Computed once at a reduced-but-meaningful size (timing-independent).
    QUALITY = run_fig5(paper_workload(size=256))

    def test_psnr_band(self):
        # Paper: 66 dB; criterion: >= 50 dB (lossy-compression class).
        assert self.QUALITY.psnr_db >= 50.0
        assert self.QUALITY.psnr_db <= 90.0  # must not be exact either

    def test_ssim_near_one(self):
        # Paper: SSIM = 1 (at its reported precision).
        assert self.QUALITY.ssim >= 0.99

    def test_outputs_differ_bitwise(self):
        # FxP and FlP must NOT be identical — the comparison is real.
        assert not np.array_equal(
            self.QUALITY.float_output.pixels, self.QUALITY.fixed_output.pixels
        )

    def test_outputs_are_displayable(self):
        assert self.QUALITY.float_output.max_value <= 1.0
        assert self.QUALITY.fixed_output.max_value <= 1.0

    def test_image_files_written(self, tmp_path):
        run_fig5(paper_workload(size=64), output_dir=tmp_path)
        assert (tmp_path / "fig5a_input.pfm").exists()
        assert (tmp_path / "fig5b_float.ppm").exists()
        assert (tmp_path / "fig5c_fixed.ppm").exists()

    def test_render(self):
        text = self.QUALITY.render()
        assert "PSNR" in text and "SSIM" in text


class TestFig6:
    def test_marked_hw_omitted(self):
        # "omitting the Marked HW function which is not relevant".
        assert [b.key for b in FIG6.bars] == ["sw", "sequential", "pragmas", "fxp"]

    def test_sw_has_no_pl_time(self):
        assert FIG6.bar("sw").pl_seconds == 0.0

    def test_accelerated_have_pl_time(self):
        for key in ("sequential", "pragmas", "fxp"):
            assert FIG6.bar(key).pl_seconds > 0.0, key

    def test_ps_time_roughly_constant_for_accelerated(self):
        # The PS-side remainder is the same work in every accelerated
        # implementation (the SW bar's PS time also contains the blur).
        ps = [FIG6.bar(k).ps_seconds for k in ("sequential", "pragmas", "fxp")]
        assert max(ps) / min(ps) < 1.3
        # And it approximates the SW total minus the SW blur.
        remainder = TABLE2.row("sw").total_seconds - TABLE2.row("sw").blur_seconds
        assert ps[1] == pytest.approx(remainder, rel=0.1)

    def test_totals_match_table2(self):
        for bar in FIG6.bars:
            assert bar.total_seconds == pytest.approx(
                TABLE2.row(bar.key).total_seconds, rel=1e-6
            )

    def test_render(self):
        text = FIG6.render()
        assert "FIG 6" in text
        assert "PS" in text and "PL" in text


class TestFig7:
    def test_energy_reduction_band(self):
        # Paper: 23%; criterion band 10-40%.
        assert 0.10 <= FIG7.energy_reduction <= 0.40

    def test_sw_total_near_calibration_anchor(self):
        assert FIG7.bar("sw").total_joules == pytest.approx(
            PAPER_ENERGY["sw_total_j"], rel=0.10
        )

    def test_fxp_total_near_paper(self):
        assert FIG7.bar("fxp").total_joules == pytest.approx(
            PAPER_ENERGY["fxp_total_j"], rel=0.15
        )

    def test_all_rails_present(self):
        for bar in FIG7.bars:
            assert set(bar.rail_joules) == set(Rail)

    def test_sequential_is_most_expensive(self):
        # Longest run + active fabric: the energy peak of Fig. 7.
        seq = FIG7.bar("sequential").total_joules
        for key in ("sw", "pragmas", "fxp"):
            assert seq > FIG7.bar(key).total_joules

    def test_ps_is_largest_rail(self):
        for bar in FIG7.bars:
            assert bar.rail_joules[Rail.PS] == max(bar.rail_joules.values())

    def test_render(self):
        text = FIG7.render()
        assert "FIG 7" in text and "reduction" in text


class TestFig8:
    def test_ps_terms_shrink_with_faster_totals(self):
        # Paper: "shorter execution times allows to reduce both the
        # bottomline and the execution overhead" (PS panel).
        sw = FIG8.bar(Rail.PS, "sw")
        fxp = FIG8.bar(Rail.PS, "fxp")
        assert fxp.bottomline_j < sw.bottomline_j
        assert fxp.overhead_j < sw.overhead_j

    def test_pl_bottomline_grows_with_configured_logic(self):
        # Paper: PL bottomline grows from SW to the accelerated designs.
        sw = FIG8.bar(Rail.PL, "sw").bottomline_j
        for key in ("sequential", "pragmas", "fxp"):
            assert FIG8.bar(Rail.PL, key).bottomline_j > sw, key

    def test_pl_overhead_shrinks_after_first_accelerator(self):
        # Paper: "the execution overhead decreases thanks to the very
        # short execution times".
        seq = FIG8.bar(Rail.PL, "sequential").overhead_j
        pragmas = FIG8.bar(Rail.PL, "pragmas").overhead_j
        fxp = FIG8.bar(Rail.PL, "fxp").overhead_j
        assert seq > pragmas > fxp

    def test_sw_has_no_pl_overhead(self):
        assert FIG8.bar(Rail.PL, "sw").overhead_j == 0.0

    def test_panels_consistent_with_fig7(self):
        for key in ("sw", "fxp"):
            fig8_total = (
                FIG8.bar(Rail.PS, key).total_j + FIG8.bar(Rail.PL, key).total_j
            )
            fig7_partial = (
                FIG7.bar(key).rail_joules[Rail.PS]
                + FIG7.bar(key).rail_joules[Rail.PL]
            )
            assert fig8_total == pytest.approx(fig7_partial, rel=0.02)

    def test_render(self):
        text = FIG8.render()
        assert "FIG 8a" in text and "FIG 8b" in text


class TestAsciiChart:
    def test_stacked_chart(self):
        text = horizontal_bar_chart(
            [("a", {"x": 1.0, "y": 2.0}), ("b", {"x": 0.5, "y": 0.5})],
            unit="s",
            title="T",
        )
        assert "T" in text and "a" in text and "3.000 s" in text

    def test_inconsistent_segments_rejected(self):
        with pytest.raises(ReproError):
            horizontal_bar_chart(
                [("a", {"x": 1.0}), ("b", {"y": 1.0})], unit="s"
            )

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            horizontal_bar_chart([("a", {"x": -1.0})], unit="s")

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            horizontal_bar_chart([], unit="s")
