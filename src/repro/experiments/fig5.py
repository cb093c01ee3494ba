"""Fig. 5 and section IV-B: tone-mapped images and quality metrics.

Runs the full pipeline twice on the evaluation image — once with the
32-bit floating-point blur (Fig. 5b) and once with the bit-accurate
16-bit fixed-point blur (Fig. 5c) — and computes PSNR and SSIM between
the two outputs, the paper's 66 dB / 1.0 result.  Optionally writes the
three images (input PFM, two output PPMs) for visual inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.accel.variants import paper_fxp_config
from repro.experiments.workload import PaperWorkload, paper_workload
from repro.image.hdr import HDRImage
from repro.image.metrics import psnr, ssim
from repro.image.pfm import write_pfm
from repro.image.ppm import write_ppm
from repro.tonemap.fixed_blur import make_fixed_blur_fn
from repro.tonemap.pipeline import ToneMapParams, ToneMapper


@dataclass(frozen=True)
class QualityResult:
    """The section IV-B quality comparison."""

    psnr_db: float
    ssim: float
    source: HDRImage
    float_output: HDRImage
    fixed_output: HDRImage

    def render(self) -> str:
        return (
            "FIG 5 / quality evaluation (FxP vs FlP tone-mapped output)\n"
            f"  PSNR: {self.psnr_db:6.2f} dB   (paper: 66 dB)\n"
            f"  SSIM: {self.ssim:8.6f}   (paper: 1.0)"
        )


def run_fig5(
    workload: Optional[PaperWorkload] = None,
    output_dir: Optional[Path] = None,
) -> QualityResult:
    """Reproduce Fig. 5 and the PSNR/SSIM comparison."""
    workload = workload or paper_workload()
    params = workload.params

    float_params = ToneMapParams(
        sigma=params.sigma, radius=params.radius,
        masking=params.masking, adjust=params.adjust, blur_fn=None,
    )
    fixed_params = ToneMapParams(
        sigma=params.sigma, radius=params.radius,
        masking=params.masking, adjust=params.adjust,
        blur_fn=make_fixed_blur_fn(paper_fxp_config()),
    )

    float_out = ToneMapper(float_params).run(workload.image).output
    fixed_out = ToneMapper(fixed_params).run(workload.image).output

    quality = QualityResult(
        psnr_db=psnr(float_out, fixed_out, data_range=1.0),
        ssim=float(ssim(float_out, fixed_out, data_range=1.0)),
        source=workload.image,
        float_output=float_out,
        fixed_output=fixed_out,
    )

    if output_dir is not None:
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        write_pfm(workload.image, output_dir / "fig5a_input.pfm")
        write_ppm(float_out.pixels, output_dir / "fig5b_float.ppm")
        write_ppm(fixed_out.pixels, output_dir / "fig5c_fixed.ppm")
    return quality
