"""The :class:`HDRImage` container.

A thin, validated wrapper around a float32 pixel array.  HDR images are
linear-light and non-negative; the container enforces those invariants so
downstream algorithms (normalization, blur, masking) never need to
re-validate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ImageError
from repro.image.color import luminance


@dataclass(frozen=True)
class HDRImage:
    """An HDR image: linear-light, non-negative float32 pixels.

    Pixels are either ``(H, W)`` gray or ``(H, W, 3)`` RGB.  Instances are
    immutable; processing stages return new images.

    Parameters
    ----------
    pixels:
        The pixel array.  Copied and converted to float32 on construction.
    name:
        Optional label carried through the pipeline (used in reports).
    """

    pixels: np.ndarray
    name: str = "unnamed"

    def __post_init__(self) -> None:
        pixels = np.asarray(self.pixels, dtype=np.float32)
        if pixels.ndim == 3 and pixels.shape[2] == 1:
            pixels = pixels[:, :, 0]
        if pixels.ndim not in (2, 3):
            raise ImageError(
                f"pixels must be (H, W) or (H, W, 3), got shape {pixels.shape}"
            )
        if pixels.ndim == 3 and pixels.shape[2] != 3:
            raise ImageError(
                f"color images must have 3 channels, got {pixels.shape[2]}"
            )
        if pixels.shape[0] < 1 or pixels.shape[1] < 1:
            raise ImageError(f"image must be non-empty, got shape {pixels.shape}")
        if not np.all(np.isfinite(pixels)):
            raise ImageError("HDR pixels must be finite")
        if pixels.min() < 0:
            raise ImageError("HDR pixels must be non-negative (linear light)")
        pixels = pixels.copy()
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)

    @classmethod
    def adopt(cls, pixels: np.ndarray, name: str = "unnamed") -> "HDRImage":
        """Trusted constructor: wrap an array without copying or scanning.

        The public constructor defends against arbitrary caller input
        with a full copy and two whole-array validation passes
        (finiteness, non-negativity).  Pipeline-internal outputs satisfy
        the invariants *by construction* — every tone-mapping stage ends
        clipped to ``[0, 1]`` — so re-scanning and re-copying them is
        pure per-frame overhead on the serving path.  ``adopt`` skips
        both: the array is marked read-only and taken as-is.

        Callers transfer ownership — the array (and, for a view, its
        base) must not be written through other references afterwards.
        Only cheap structural checks are performed; use the public
        constructor for any data that did not just come out of the
        pipeline.
        """
        pixels = np.asarray(pixels)
        if pixels.dtype != np.float32 or pixels.ndim not in (2, 3):
            raise ImageError(
                "adopt expects float32 (H, W) or (H, W, 3) pipeline "
                f"output, got {pixels.dtype} {pixels.shape}"
            )
        pixels.setflags(write=False)
        image = object.__new__(cls)
        object.__setattr__(image, "pixels", pixels)
        object.__setattr__(image, "name", name)
        return image

    # ------------------------------------------------------------------
    # Shape queries
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else self.pixels.shape[2]

    @property
    def is_color(self) -> bool:
        return self.channels == 3

    @property
    def pixel_count(self) -> int:
        """Number of pixels (not samples): ``H * W``."""
        return self.height * self.width

    # ------------------------------------------------------------------
    # Derived planes
    # ------------------------------------------------------------------
    def luminance(self) -> np.ndarray:
        """Rec. 601 luminance plane (float64)."""
        return luminance(self.pixels)

    @property
    def max_value(self) -> float:
        return float(self.pixels.max())

    @property
    def min_value(self) -> float:
        return float(self.pixels.min())

    def normalized(self) -> "HDRImage":
        """Step 1 of the paper's pipeline: divide by the image maximum.

        A black image normalizes to itself (there is nothing to scale).
        """
        peak = self.max_value
        if peak == 0.0:
            return self
        return HDRImage(self.pixels / peak, name=f"{self.name}:normalized")

    def with_name(self, name: str) -> "HDRImage":
        """A copy of this image under a different label."""
        return HDRImage(self.pixels, name=name)

    def map(self, fn, suffix: str = "mapped") -> "HDRImage":
        """Apply an array function to the pixels, returning a new image."""
        return HDRImage(fn(np.asarray(self.pixels)), name=f"{self.name}:{suffix}")

    # ------------------------------------------------------------------
    # Comparison helpers
    # ------------------------------------------------------------------
    def same_shape(self, other: "HDRImage") -> bool:
        return self.pixels.shape == other.pixels.shape

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HDRImage):
            return NotImplemented
        return self.same_shape(other) and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __hash__(self) -> int:
        return hash((self.pixels.shape, self.pixels.tobytes()))

    def __repr__(self) -> str:
        kind = "RGB" if self.is_color else "gray"
        return (
            f"HDRImage({self.name!r}, {self.width}x{self.height} {kind}, "
            f"range [{self.min_value:.4g}, {self.max_value:.4g}])"
        )
