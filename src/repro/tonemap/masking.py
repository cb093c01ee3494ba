"""Non-linear masking: the core tone-mapping operation.

"Main tone mapping operation used to modify through gamma-correction the
pixel values of the original image using the pixels of the blurred image"
(paper section II-A, step 3).  This is Moroney's local color correction
(CIC 2000, paper reference [9]): each pixel gets its own gamma exponent
derived from the blurred neighbourhood brightness, so dark zones become
brighter and bright zones become darker.

With a normalized image ``I`` and blurred mask ``M`` (both unit-range):

.. math::

    O = I^{\\,2^{s\\,(2M - 1)}}

where ``s`` is the masking strength (``s = 1`` reproduces Moroney's
formulation).  A bright neighbourhood (``M > 0.5``) gives an exponent
above 1, compressing highlights; a dark neighbourhood gives an exponent
below 1, lifting shadows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ToneMapError


@dataclass(frozen=True)
class MaskingParams:
    """Parameters for the non-linear masking step.

    Parameters
    ----------
    strength:
        Scales the exponent's deviation from 1.  0 disables the effect
        (output equals input); 1 is the classic Moroney mapping.
    epsilon:
        Floor applied to the input before exponentiation so that zero-
        valued pixels stay zero without producing ``0**0`` artifacts.
    """

    strength: float = 1.0
    epsilon: float = 1e-12

    def __post_init__(self) -> None:
        if self.strength < 0:
            raise ToneMapError(f"strength must be >= 0, got {self.strength}")
        if not 0 < self.epsilon < 1e-3:
            raise ToneMapError(
                f"epsilon must be a small positive value, got {self.epsilon}"
            )


def masking_exponent(mask: np.ndarray, params: MaskingParams = MaskingParams()) -> np.ndarray:
    """Per-pixel gamma exponent ``2**(s * (2*mask - 1))``."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.min() < -1e-9 or mask.max() > 1.0 + 1e-9:
        raise ToneMapError(
            f"mask must be unit-range, got [{mask.min():.4g}, {mask.max():.4g}]"
        )
    mask = np.clip(mask, 0.0, 1.0)
    return np.power(2.0, params.strength * (2.0 * mask - 1.0))


def nonlinear_masking(
    normalized: np.ndarray,
    mask: np.ndarray,
    params: MaskingParams = MaskingParams(),
) -> np.ndarray:
    """Apply mask-driven gamma correction to a normalized image.

    ``normalized`` is the unit-range image from step 1; ``mask`` is the
    blurred unit-range luminance plane from step 2.  For color images the
    same (luminance-derived) exponent plane applies to all three channels,
    preserving color appearance as the paper requires.
    """
    normalized = np.asarray(normalized, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 2:
        raise ToneMapError(f"mask must be a 2-D plane, got shape {mask.shape}")
    if normalized.shape[:2] != mask.shape:
        raise ToneMapError(
            f"image {normalized.shape} and mask {mask.shape} sizes differ"
        )
    if normalized.min() < -1e-9 or normalized.max() > 1.0 + 1e-9:
        raise ToneMapError(
            "nonlinear_masking expects a normalized (unit-range) image; "
            "run normalization first"
        )
    exponent = masking_exponent(mask, params)
    if normalized.ndim == 3:
        exponent = exponent[:, :, np.newaxis]
    base = np.clip(normalized, params.epsilon, 1.0)
    out = np.power(base, exponent)
    # Pixels at (or below) the epsilon floor are true blacks: keep them 0.
    out = np.where(normalized <= params.epsilon, 0.0, out)
    return out
