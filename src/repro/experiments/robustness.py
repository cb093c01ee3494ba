"""Quality-robustness study: PSNR/SSIM across scene content.

The paper reports one PSNR/SSIM pair on one photograph.  Because our
input is a substitution, this study checks that the fixed-point quality
result is a property of the *arithmetic*, not of the particular scene:
it runs the FxP-vs-FlP comparison over every synthetic scene class
(smooth gradients, hard-edged checkers, near-black starfields, ...) and
reports the spread.

If the 16-bit conversion is sound, every scene lands in the same
lossy-compression-class band (paper: 66 dB) with SSIM ~ 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.accel.variants import paper_fxp_config
from repro.experiments.workload import make_paper_tonemap_params
from repro.image.metrics import psnr, ssim
from repro.image.synthetic import SCENE_BUILDERS, SceneParams
from repro.tonemap.fixed_blur import make_fixed_blur_fn
from repro.tonemap.pipeline import ToneMapParams, ToneMapper


@dataclass(frozen=True)
class SceneQuality:
    """FxP-vs-FlP quality on one scene."""

    scene: str
    psnr_db: float
    ssim: float


@dataclass(frozen=True)
class RobustnessStudy:
    results: List[SceneQuality]

    def result(self, scene: str) -> SceneQuality:
        for r in self.results:
            if r.scene == scene:
                return r
        raise KeyError(scene)

    @property
    def min_psnr_db(self) -> float:
        return min(r.psnr_db for r in self.results)

    @property
    def max_psnr_db(self) -> float:
        return max(r.psnr_db for r in self.results)

    def render(self) -> str:
        lines = ["QUALITY ROBUSTNESS: FxP vs FlP across scene classes"]
        for r in self.results:
            lines.append(
                f"  {r.scene:18s} PSNR {r.psnr_db:6.2f} dB   SSIM {r.ssim:.6f}"
            )
        lines.append(
            f"  spread: [{self.min_psnr_db:.2f}, {self.max_psnr_db:.2f}] dB "
            f"(paper's single value: 66 dB)"
        )
        return "\n".join(lines)


def quality_robustness(
    size: int = 256, seed: int = 2018, scenes: Optional[List[str]] = None
) -> RobustnessStudy:
    """Run the FxP-vs-FlP comparison over every scene class."""
    scenes = scenes or sorted(SCENE_BUILDERS)
    params = make_paper_tonemap_params()
    # Scale the mask radius to the evaluation size (as paper_workload does).
    radius = min(params.radius or 28, max(1, size // 8))
    base = ToneMapParams(
        sigma=max(radius / 3.0, 0.5), radius=radius,
        masking=params.masking, adjust=params.adjust,
    )
    fxp = ToneMapParams(
        sigma=base.sigma, radius=base.radius, masking=base.masking,
        adjust=base.adjust, blur_fn=make_fixed_blur_fn(paper_fxp_config()),
    )

    results = []
    for name in scenes:
        image = SCENE_BUILDERS[name](
            SceneParams(height=size, width=size, seed=seed)
        )
        flp_out = ToneMapper(base).run(image).output
        fxp_out = ToneMapper(fxp).run(image).output
        results.append(
            SceneQuality(
                scene=name,
                psnr_db=psnr(flp_out, fxp_out, data_range=1.0),
                ssim=float(ssim(flp_out, fxp_out, data_range=1.0)),
            )
        )
    return RobustnessStudy(results=results)
