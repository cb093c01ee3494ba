"""Brightness and contrast adjustment (pipeline step 4).

"Brightness and contrast adjustments to improve quality" (paper section
II-A).  The adjustment is the standard linear remap around mid-gray with a
clamp to the displayable unit range, plus an optional percentile-based
auto-contrast used when no manual parameters are given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ToneMapError


@dataclass(frozen=True)
class AdjustParams:
    """Brightness/contrast parameters.

    ``output = clip((input - 0.5) * contrast + 0.5 + brightness)``

    Parameters
    ----------
    brightness:
        Additive offset in ``[-1, 1]``.
    contrast:
        Multiplicative slope around mid-gray; 1 is identity.
    """

    brightness: float = 0.0
    contrast: float = 1.0

    def __post_init__(self) -> None:
        if not -1.0 <= self.brightness <= 1.0:
            raise ToneMapError(f"brightness must be in [-1, 1], got {self.brightness}")
        if self.contrast <= 0:
            raise ToneMapError(f"contrast must be positive, got {self.contrast}")

    @property
    def is_identity(self) -> bool:
        return self.brightness == 0.0 and self.contrast == 1.0


def adjust_brightness_contrast(
    pixels: np.ndarray, params: AdjustParams = AdjustParams()
) -> np.ndarray:
    """Linear brightness/contrast remap with unit-range clamp."""
    pixels = np.asarray(pixels, dtype=np.float64)
    out = (pixels - 0.5) * params.contrast + 0.5 + params.brightness
    return np.clip(out, 0.0, 1.0)


def auto_contrast(
    pixels: np.ndarray, low_percentile: float = 0.5, high_percentile: float = 99.5
) -> np.ndarray:
    """Stretch the given percentiles to the full unit range.

    A robust automatic variant of step 4: maps the ``low_percentile`` of
    the luminance-equivalent distribution to 0 and the ``high_percentile``
    to 1, clipping outliers.  Degenerate (flat) images return unchanged.
    """
    if not 0 <= low_percentile < high_percentile <= 100:
        raise ToneMapError(
            f"invalid percentile pair ({low_percentile}, {high_percentile})"
        )
    pixels = np.asarray(pixels, dtype=np.float64)
    lo = float(np.percentile(pixels, low_percentile))
    hi = float(np.percentile(pixels, high_percentile))
    if hi <= lo:
        return np.clip(pixels, 0.0, 1.0)
    return np.clip((pixels - lo) / (hi - lo), 0.0, 1.0)
