"""Benchmark: Fig. 5 / section IV-B — image quality of FxP vs FlP.

Runs the two real pixel pipelines (float blur and bit-accurate 16-bit
fixed-point blur) and the PSNR/SSIM comparison.  A 512x512 crop of the
workload keeps the benchmark brisk while exercising every code path; the
full 1024x1024 numbers are produced by ``repro-experiments fig5``.
"""

import pytest

from repro.experiments.fig5 import run_fig5
from repro.experiments.workload import paper_workload
from repro.image.metrics import psnr, ssim
from repro.tonemap.pipeline import ToneMapper

SIZE = 512


@pytest.fixture(scope="module")
def workload():
    return paper_workload(size=SIZE)


def test_fig5_quality(benchmark, workload):
    quality = benchmark(run_fig5, workload)
    benchmark.extra_info["psnr_db_model"] = quality.psnr_db
    benchmark.extra_info["psnr_db_paper"] = 66.0
    benchmark.extra_info["ssim_model"] = quality.ssim
    benchmark.extra_info["ssim_paper"] = 1.0
    assert quality.psnr_db >= 50.0
    assert quality.ssim >= 0.99


def test_fig5_float_pipeline(benchmark, workload):
    mapper = ToneMapper(workload.params)
    result = benchmark(mapper.run, workload.image)
    assert result.output.max_value <= 1.0


def test_fig5_fixed_pipeline(benchmark, workload):
    from repro.accel.variants import paper_fxp_config
    from repro.tonemap.fixed_blur import make_fixed_blur_fn
    from repro.tonemap.pipeline import ToneMapParams

    base = workload.params
    params = ToneMapParams(
        sigma=base.sigma, radius=base.radius, masking=base.masking,
        adjust=base.adjust, blur_fn=make_fixed_blur_fn(paper_fxp_config()),
    )
    mapper = ToneMapper(params)
    result = benchmark(mapper.run, workload.image)
    assert result.output.max_value <= 1.0


def test_fig5_metrics_cost(benchmark, workload):
    mapper = ToneMapper(workload.params)
    out = mapper.run(workload.image).output

    def both():
        return psnr(out, out, 1.0), float(ssim(out, out, 1.0))

    p, s = benchmark(both)
    assert s == pytest.approx(1.0)
