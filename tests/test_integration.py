"""End-to-end integration tests: full stacks wired together."""

import numpy as np
import pytest

from repro.accel import BlurGeometry
from repro.experiments import (
    make_paper_flow,
    paper_workload,
    run_fig5,
    run_table2,
)
from repro.experiments.runner import run_all_experiments
from repro.image import SceneParams, psnr, ssim, window_interior_scene
from repro.image.pfm import read_pfm, write_pfm
from repro.image.ppm import read_ppm
from repro.platform import ZynqSoC
from repro.power.pmbus import PmBusMonitor
from repro.sdsoc.flow import OptimizationFlow
from repro.tonemap import ToneMapParams, ToneMapper, tone_map


class TestFullPipelineIntegration:
    def test_tone_map_roundtrip_through_files(self, tmp_path):
        # Scene -> PFM -> read back -> tone map -> PPM -> read back.
        scene = window_interior_scene(SceneParams(height=96, width=96))
        pfm_path = tmp_path / "in.pfm"
        write_pfm(scene, pfm_path)
        loaded = read_pfm(pfm_path)
        assert loaded == scene

        out = tone_map(loaded, ToneMapParams(sigma=4.0))
        from repro.image.ppm import write_ppm

        ppm_path = tmp_path / "out.ppm"
        write_ppm(out.pixels, ppm_path)
        back = read_ppm(ppm_path)
        assert back.shape == (96, 96, 3)
        assert back.max() > back.min()  # non-degenerate image

    def test_quality_pipeline_consistency(self):
        # Fig. 5's quality numbers must be reproducible from the public
        # API alone (no experiment harness).
        workload = paper_workload(size=128)
        from repro.accel.variants import paper_fxp_config
        from repro.tonemap.fixed_blur import make_fixed_blur_fn

        base = workload.params
        flp = ToneMapper(base).run(workload.image).output
        fxp_params = ToneMapParams(
            sigma=base.sigma, radius=base.radius, masking=base.masking,
            adjust=base.adjust, blur_fn=make_fixed_blur_fn(paper_fxp_config()),
        )
        fxp = ToneMapper(fxp_params).run(workload.image).output
        assert psnr(flp, fxp, 1.0) > 45.0
        assert float(ssim(flp, fxp, 1.0)) > 0.99


class TestHarnessIntegration:
    def test_run_all_experiments_small(self, tmp_path):
        suite = run_all_experiments(image_size=64, output_dir=tmp_path)
        text = suite.render()
        for marker in ("TABLE II", "FIG 5", "FIG 6", "FIG 7", "FIG 8a"):
            assert marker in text
        assert (tmp_path / "fig5b_float.ppm").exists()

    def test_flow_results_deterministic(self):
        a = run_table2(make_paper_flow())
        b = run_table2(make_paper_flow())
        for ra, rb in zip(a.rows, b.rows):
            assert ra.blur_seconds == rb.blur_seconds
            assert ra.total_seconds == rb.total_seconds

    def test_energy_through_monitor_matches_decomposition(self):
        # Fig. 7 (PMBus sampling) and Fig. 8 (exact decomposition) must
        # agree on totals for every implementation.
        from repro.experiments.calibration import calibrated_power_model
        from repro.power.energy import compute_energy

        flow = make_paper_flow()
        model = calibrated_power_model()
        monitor = PmBusMonitor(sample_interval_s=1e-3)
        for key in ("sw", "sequential", "pragmas", "fxp"):
            result = flow.run_variant(key)
            timeline = model.timeline_powers(result.phases(),
                                             result.pl_utilization)
            sampled = sum(monitor.measure_energy(timeline).values())
            exact = compute_energy(key, result.phases(),
                                   result.pl_utilization, model).total_j
            assert sampled == pytest.approx(exact, rel=0.02), key


class TestCrossLayerConsistency:
    def test_geometry_consistent_between_layers(self):
        # The functional kernel and the performance kernel must describe
        # the same filter.
        flow = make_paper_flow()
        geom = flow.geometry
        kernel = geom.kernel()
        assert kernel.taps == geom.taps
        hw = flow.variants["fxp"].kernel
        assert hw.array("coeffs").depth == geom.taps
        assert hw.array("linebuf").depth == geom.taps * geom.width

    def test_bram_capacity_honoured(self):
        # The line buffer the flow instantiates must actually fit the
        # device according to the independent BRAM model.
        soc = ZynqSoC()
        flow = make_paper_flow()
        geom = flow.geometry
        assert soc.bram.lines_fit(geom.width, geom.element_bits) >= geom.taps

    def test_resources_fit_the_device(self):
        flow = make_paper_flow()
        soc = flow.soc
        for key in ("marked_hw", "sequential", "pragmas", "fxp"):
            result = flow.run_variant(key)
            assert result.resources.fits(soc.device.limits), key

    def test_small_geometry_end_to_end(self):
        geom = BlurGeometry(height=32, width=32, radius=2, sigma=1.0)
        flow = OptimizationFlow(ZynqSoC(), geometry=geom)
        results = flow.run_all()
        blur = {r.key: r.blur_seconds for r in results}
        # Orderings hold even at toy sizes.
        assert blur["marked_hw"] > blur["sequential"]
        assert blur["pragmas"] > blur["fxp"]
