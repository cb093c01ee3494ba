"""Tests for repro.sdsoc.flow (the five-step optimization ladder).

These tests pin the *shape* criteria from DESIGN.md: orderings,
crossovers and ratio bands, not absolute seconds.
"""

import pytest

from repro.accel import BlurGeometry
from repro.errors import FlowError
from repro.experiments.calibration import make_paper_flow
from repro.platform import ZynqSoC
from repro.sdsoc.flow import OptimizationFlow

# Module-level: the calibrated flow is reused by many tests (it is cheap —
# all analytic — but building variants repeatedly adds up).
FLOW = make_paper_flow()
RESULTS = {r.key: r for r in FLOW.run_all()}


class TestTableIIShape:
    def test_ordering_of_blur_times(self):
        # marked >> sequential > sw > pragmas > fxp (the paper's ladder).
        blur = {k: r.blur_seconds for k, r in RESULTS.items()}
        assert blur["marked_hw"] > blur["sequential"] > blur["sw"]
        assert blur["sw"] > blur["pragmas"] > blur["fxp"]

    def test_naive_offload_is_a_regression(self):
        # "a straightforward selection ... would not produce any
        # immediate gain" — at least 5x slower (paper: 24x).
        ratio = RESULTS["marked_hw"].blur_seconds / RESULTS["sw"].blur_seconds
        assert ratio > 5.0

    def test_sequential_restructure_still_slower_than_sw(self):
        # The key crossover: restructuring alone does not beat the CPU.
        assert RESULTS["sequential"].blur_seconds > RESULTS["sw"].blur_seconds

    def test_blur_speedup_at_least_10x(self):
        # Paper headline: "more than 17x".
        speedup = RESULTS["sw"].blur_seconds / RESULTS["fxp"].blur_seconds
        assert speedup >= 10.0

    def test_fxp_faster_than_float_pragmas(self):
        assert RESULTS["fxp"].blur_seconds < RESULTS["pragmas"].blur_seconds

    def test_totals_dominated_by_ps_for_fast_variants(self):
        # Once the blur is accelerated, the totals collapse onto the
        # PS-side remainder (paper: 19.10 / 19.27 vs 26.66).
        for key in ("pragmas", "fxp"):
            result = RESULTS[key]
            rest_seconds = result.total_seconds - result.blur_seconds
            assert rest_seconds / result.total_seconds > 0.9

    def test_fxp_total_slightly_above_pragmas_total(self):
        # Paper Table II: 19.27 > 19.10 — the PS-side conversion eats the
        # blur gain.
        assert RESULTS["fxp"].total_seconds > RESULTS["pragmas"].total_seconds
        assert RESULTS["fxp"].total_seconds < 1.05 * RESULTS["pragmas"].total_seconds

    def test_sw_blur_near_paper_anchor(self):
        # Calibrated anchor: 7.29 s within 5%.
        assert RESULTS["sw"].blur_seconds == pytest.approx(7.29, rel=0.05)

    def test_marked_blur_near_paper_anchor(self):
        assert RESULTS["marked_hw"].blur_seconds == pytest.approx(176.0, rel=0.05)


class TestResultStructure:
    def test_stage_accounting_consistent(self):
        for result in RESULTS.values():
            assert result.total_seconds == pytest.approx(
                sum(s.seconds for s in result.stage_times)
            )

    def test_sw_variant_has_no_hardware(self):
        result = RESULTS["sw"]
        assert not result.uses_hardware
        assert result.pl_busy_seconds == 0.0
        assert result.resources is None
        assert result.pl_utilization == 0.0

    def test_hw_variants_have_resources_and_utilization(self):
        for key in ("marked_hw", "sequential", "pragmas", "fxp"):
            result = RESULTS[key]
            assert result.uses_hardware
            assert result.resources is not None
            assert 0.0 < result.pl_utilization < 1.0

    def test_fxp_has_conversion_stage(self):
        stage = RESULTS["fxp"].stage("fxp_conversion")
        assert stage.seconds > 0
        with pytest.raises(FlowError):
            RESULTS["pragmas"].stage("fxp_conversion")

    def test_phases_cover_total_time(self):
        for result in RESULTS.values():
            phases = result.phases()
            assert sum(p.duration_s for p in phases) == pytest.approx(
                result.total_seconds
            )

    def test_hw_blur_phase_is_pl_active(self):
        phases = {p.name: p for p in RESULTS["fxp"].phases()}
        assert phases["gaussian_blur"].pl_active
        assert not phases["gaussian_blur"].ps_active
        assert phases["masking"].ps_active

    def test_hls_report_renders(self):
        text = RESULTS["fxp"].hls_design.report()
        assert "pixels" in text

    def test_fxp_transfers_half_of_float(self):
        # 16-bit elements halve the DMA payload.
        assert RESULTS["fxp"].transfer_seconds < RESULTS["pragmas"].transfer_seconds


class TestFlowApi:
    def test_unknown_variant_rejected(self):
        with pytest.raises(FlowError):
            FLOW.run_variant("ghost")

    def test_bad_channels_rejected(self):
        with pytest.raises(FlowError):
            OptimizationFlow(ZynqSoC(), channels=2)

    def test_small_geometry_flow_runs(self):
        flow = OptimizationFlow(
            ZynqSoC(), geometry=BlurGeometry(height=64, width=64, radius=4,
                                             sigma=2.0)
        )
        results = flow.run_all()
        assert len(results) == 5

    def test_ps_stage_times_positive(self):
        for name, seconds in FLOW.ps_stage_times().items():
            assert seconds > 0, name

    def test_project_for_sw_variant_has_no_marked_functions(self):
        project = FLOW.project_for(FLOW.variants["sw"])
        assert project.marked_functions == []

    def test_project_for_hw_variant_marks_blur(self):
        project = FLOW.project_for(FLOW.variants["fxp"])
        assert project.marked_functions == ["gaussian_blur"]
