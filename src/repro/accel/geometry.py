"""Blur geometry shared by the functional and performance layers.

One object describes the workload every Table II row processes: image
size, filter extent and element width.  The performance model prices
loops with these trip counts; the functional model runs the same-sized
arrays; keeping them in one place guarantees the two layers never
diverge.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FlowError
from repro.tonemap.gaussian import GaussianKernel


@dataclass(frozen=True)
class BlurGeometry:
    """Size parameters of one Gaussian-blur execution.

    Parameters
    ----------
    height, width:
        Image dimensions in pixels (the paper: 1024 x 1024).
    radius:
        Filter radius; ``taps = 2 * radius + 1``.  The default mask
        radius of 28 (57 taps, sigma ~9.3) gives the wide local-contrast
        neighbourhood the algorithm needs at 1024x1024 and is consistent
        with the paper's software timing (see calibration notes).
    sigma:
        Gaussian standard deviation.
    element_bits:
        Pixel width in the accelerator datapath: 32 (float rungs) or 16
        (fixed-point rung).
    """

    height: int = 1024
    width: int = 1024
    radius: int = 28
    sigma: float = 28 / 3.0
    element_bits: int = 32

    def __post_init__(self) -> None:
        if self.height < 8 or self.width < 8:
            raise FlowError(f"image too small: {self.height}x{self.width}")
        if self.radius < 1:
            raise FlowError(f"radius must be >= 1, got {self.radius}")
        if self.sigma <= 0:
            raise FlowError(f"sigma must be positive, got {self.sigma}")
        if self.element_bits not in (8, 16, 32, 64):
            raise FlowError(
                f"element_bits must be a bus-aligned width, got {self.element_bits}"
            )
        if 2 * self.radius + 1 > min(self.height, self.width):
            raise FlowError("filter taps exceed image size")

    @property
    def taps(self) -> int:
        return 2 * self.radius + 1

    @property
    def pixels(self) -> int:
        return self.height * self.width

    @property
    def element_bytes(self) -> int:
        return self.element_bits // 8

    def kernel(self) -> GaussianKernel:
        """The Gaussian kernel this geometry implies."""
        return GaussianKernel(sigma=self.sigma, radius=self.radius)
