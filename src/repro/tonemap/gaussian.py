"""Gaussian kernels and the floating-point reference blur.

The Gaussian blur is "a bi-dimensional image filter in which each pixel is
updated summing up to it a certain number of adjacent pixels, horizontal or
vertical, weighted by a certain coefficient.  The number of adjacent pixels
and the weights ... are determined by width and magnitude of a Gaussian
distribution" (paper section II-A).  The filter is separable: a horizontal
pass followed by a vertical pass, which is exactly how both the software
reference and the hardware accelerator implement it.

Borders use edge replication (clamp addressing), the natural policy for a
streaming line-buffer hardware implementation.

Performance notes
-----------------
The blur is the pipeline's hotspot (it is the stage the paper moves to the
FPGA), so the software reference carries three row-convolution strategies:

``direct``
    The seed implementation: one shifted multiply-add over the whole plane
    per tap, K passes total.  Kept as the semantic reference that the fast
    paths are tested against.
``folded``
    Exploits kernel symmetry: mirrored taps share a coefficient, so the
    pair of shifted planes is added first and multiplied once —
    ``ceil(K/2)`` multiply passes instead of ``K``.  Associates the sum
    differently from ``direct``, so results agree to ~1e-12 (well inside
    the documented 1e-9 contract), not bit-exactly.
``fft``
    Pointwise multiplication in the frequency domain via ``numpy.fft.rfft``
    over edge-padded rows: O(W log W) per row independent of K.  Worth it
    once the kernel is wide; at the paper's default (sigma 16 -> 97 taps)
    it is by far the fastest path.

``method="auto"`` (the default) picks ``fft`` once the kernel reaches
the calibrated ``fft_crossover_taps``, otherwise ``folded``.  The
crossover lives in the planner's calibration profile
(:func:`repro.planner.profile.active_profile`, resolved on every call):
the built-in default was chosen from the benchmark suite
(``benchmarks/bench_blur.py``) — the FFT path wins from roughly two
dozen taps upward on any plane large enough to care about — and it only
needs to be in the right neighbourhood because both sides of the
crossover are fast.  Pass ``method=`` explicitly to pin a path (tests
and the equivalence suite do), use
``repro.planner.profile.override(...)`` to re-pin the crossover for a
scope, or calibrate a profile with ``repro.planner.calibrate`` for a
different host.

**Tolerance contract:** every fast path agrees with ``direct`` to an
absolute tolerance of 1e-9 on unit-range planes (enforced by
``tests/test_blur_fastpaths.py``).  Bit-exactness across paths is not
promised — pin ``method`` if replaying bit-identical floats matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import ToneMapError

# The dispatch crossover lives in the planner's calibration profile
# (single source of truth, resolved at *call* time so profile files and
# per-case pins work without importlib.reload).
from repro.planner.profile import CalibrationProfile, select_blur_method

#: Valid ``method=`` arguments of :func:`separable_blur` / :func:`blur_batch`.
BLUR_METHODS = ("auto", "direct", "folded", "fft")


@dataclass(frozen=True)
class GaussianKernel:
    """A 1-D normalized Gaussian filter kernel.

    Parameters
    ----------
    sigma:
        Standard deviation of the Gaussian, in pixels.  The paper's local
        operator uses a wide kernel so the mask captures neighbourhood
        brightness rather than pixel detail.
    radius:
        Taps on each side of the centre; ``taps = 2 * radius + 1``.
        Defaults to ``ceil(3 * sigma)``, covering 99.7 % of the Gaussian's
        mass.
    """

    sigma: float
    radius: int = -1  # sentinel: computed in __post_init__
    _coefficients: np.ndarray = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ToneMapError(f"sigma must be positive, got {self.sigma}")
        radius = self.radius
        if radius == -1:
            radius = max(1, math.ceil(3.0 * self.sigma))
            object.__setattr__(self, "radius", radius)
        if radius < 1:
            raise ToneMapError(f"radius must be >= 1, got {radius}")
        # Compute the normalized coefficients once; repeated pipeline runs
        # hit the cached array instead of re-deriving np.exp per access.
        offsets = np.arange(-radius, radius + 1, dtype=np.float64)
        weights = np.exp(-(offsets**2) / (2.0 * self.sigma**2))
        coefficients = weights / weights.sum()
        coefficients.setflags(write=False)
        object.__setattr__(self, "_coefficients", coefficients)

    @property
    def taps(self) -> int:
        """Total number of filter taps, ``2 * radius + 1``."""
        return 2 * self.radius + 1

    @property
    def coefficients(self) -> np.ndarray:
        """Normalized float64 coefficients (cached, read-only view)."""
        return self._coefficients

    def __str__(self) -> str:
        return f"Gaussian(sigma={self.sigma}, taps={self.taps})"


def _pad_last(arr: np.ndarray, radius: int) -> np.ndarray:
    """Edge-replicate padding along the last axis."""
    pad = [(0, 0)] * (arr.ndim - 1) + [(radius, radius)]
    return np.pad(arr, pad, mode="edge")


def _convolve_direct(arr: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Seed path: one shifted multiply-add per tap along the last axis."""
    radius = (coefficients.size - 1) // 2
    padded = _pad_last(arr, radius)
    out = np.zeros_like(arr, dtype=np.float64)
    width = arr.shape[-1]
    for k, coeff in enumerate(coefficients):
        out += coeff * padded[..., k : k + width]
    return out


def fold_rows_into(
    padded: np.ndarray,
    coefficients: np.ndarray,
    out: np.ndarray,
    pair: np.ndarray,
) -> np.ndarray:
    """The folded convolution arithmetic on pre-padded rows, allocation-free.

    ``padded`` carries ``radius`` edge-replicated columns on each side of
    the data; ``out`` and ``pair`` are caller-owned scratch of the output
    shape.  This is the single definition of the folded multiply-add
    sequence: :func:`_convolve_folded` wraps it with freshly allocated
    buffers, and the fused engine (:mod:`repro.runtime.fused`) calls it
    directly on reusable band scratch — so the two paths stay
    bit-identical by construction, not by test luck.
    """
    radius = (coefficients.size - 1) // 2
    width = out.shape[-1]
    np.multiply(
        coefficients[radius], padded[..., radius : radius + width], out=out
    )
    for k in range(radius):
        mirror = 2 * radius - k
        np.add(
            padded[..., k : k + width],
            padded[..., mirror : mirror + width],
            out=pair,
        )
        pair *= coefficients[k]
        out += pair
    return out


def _convolve_folded(arr: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Symmetry-folded path: mirrored taps are summed before multiplying.

    Requires a symmetric kernel (every :class:`GaussianKernel` is); halves
    the number of full-plane multiply passes relative to ``direct``.
    """
    radius = (coefficients.size - 1) // 2
    padded = _pad_last(arr, radius)
    out = np.empty(arr.shape, dtype=np.float64)
    pair = np.empty_like(out)
    return fold_rows_into(padded, coefficients, out, pair)


def _convolve_fft(arr: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """FFT path: frequency-domain row convolution, O(W log W) per row.

    Edge-replicates the rows first so border semantics match the sliding
    paths exactly; the kernel is symmetric, so correlation and convolution
    coincide and no flip is needed.
    """
    taps = coefficients.size
    radius = (taps - 1) // 2
    padded = _pad_last(arr, radius)
    width = arr.shape[-1]
    n = padded.shape[-1] + taps - 1  # full linear convolution length
    spectrum = np.fft.rfft(padded, n=n, axis=-1)
    spectrum *= np.fft.rfft(coefficients, n=n)
    full = np.fft.irfft(spectrum, n=n, axis=-1)
    return full[..., 2 * radius : 2 * radius + width]


def _select_method(
    method: str,
    taps: int,
    profile: Optional[CalibrationProfile] = None,
) -> str:
    """Resolve ``"auto"`` against the calibrated crossover; validate.

    The crossover comes from the planner's *active* calibration profile
    (resolved per call — profile files and
    ``repro.planner.profile.override`` take effect immediately), or
    from an explicitly pinned ``profile``.
    """
    if method not in BLUR_METHODS:
        raise ToneMapError(
            f"unknown blur method {method!r}; expected one of {BLUR_METHODS}"
        )
    if method != "auto":
        return method
    return select_blur_method(taps, profile)


_CONVOLVERS = {
    "direct": _convolve_direct,
    "folded": _convolve_folded,
    "fft": _convolve_fft,
}


def separable_blur(
    plane: np.ndarray, kernel: GaussianKernel, method: str = "auto"
) -> np.ndarray:
    """Blur a 2-D plane with a separable Gaussian (float64 reference).

    Horizontal pass then vertical pass, matching the two hardware passes of
    the accelerator.  Output has the same shape as the input.  ``method``
    selects the row-convolution strategy (see the module's performance
    notes); the default ``"auto"`` dispatches on kernel width.
    """
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2:
        raise ToneMapError(f"separable_blur expects a 2-D plane, got {plane.shape}")
    coeffs = kernel.coefficients
    convolve = _CONVOLVERS[_select_method(method, coeffs.size)]
    horizontal = convolve(plane, coeffs)
    vertical = convolve(np.ascontiguousarray(horizontal.T), coeffs).T
    return np.ascontiguousarray(vertical)


#: Per-chunk budget of plane bytes for :func:`blur_batch`.  Convolving the
#: whole stack in one array pass thrashes the cache once the working set
#: leaves last-level cache (measured ~40 % slower at 512^2 x 8), so big
#: batches are processed in chunks of whole planes; small planes still get
#: their passes amortized across many images per chunk.
BATCH_CHUNK_BYTES = 1 << 21


def _blur_stack(
    planes: np.ndarray, coeffs: np.ndarray, convolve
) -> np.ndarray:
    horizontal = convolve(planes, coeffs)
    vertical = convolve(
        np.ascontiguousarray(np.swapaxes(horizontal, 1, 2)), coeffs
    )
    return np.ascontiguousarray(np.swapaxes(vertical, 1, 2))


def blur_batch(
    planes: np.ndarray, kernel: GaussianKernel, method: str = "auto"
) -> np.ndarray:
    """Blur a stacked ``(N, H, W)`` batch of planes in one vectorized run.

    Bit-identical to :func:`separable_blur` applied per plane (same
    method): each row's convolution is independent, so stacking only
    changes how many rows one array pass covers.  The stack is processed
    in cache-sized chunks of whole planes (:data:`BATCH_CHUNK_BYTES`) —
    the hot path of :class:`repro.runtime.BatchToneMapper`.
    """
    planes = np.asarray(planes, dtype=np.float64)
    if planes.ndim != 3:
        raise ToneMapError(
            f"blur_batch expects a (N, H, W) stack, got {planes.shape}"
        )
    coeffs = kernel.coefficients
    count, height, width = planes.shape
    convolve = _CONVOLVERS[_select_method(method, coeffs.size)]
    chunk = max(1, BATCH_CHUNK_BYTES // (height * width * planes.itemsize))
    if count <= chunk:
        return _blur_stack(planes, coeffs, convolve)
    out = np.empty_like(planes)
    for lo in range(0, count, chunk):
        out[lo : lo + chunk] = _blur_stack(
            planes[lo : lo + chunk], coeffs, convolve
        )
    return out


def blur_plane(plane: np.ndarray, sigma: float, radius: int | None = None) -> np.ndarray:
    """Convenience wrapper: build a kernel and run :func:`separable_blur`."""
    kernel = GaussianKernel(sigma=sigma, radius=-1 if radius is None else radius)
    return separable_blur(plane, kernel)


def blur_2d_direct(plane: np.ndarray, kernel: GaussianKernel) -> np.ndarray:
    """Direct (non-separable) 2-D convolution; O(K^2) per pixel.

    Exists to validate the separable implementation: a separable Gaussian's
    outer product equals the 2-D kernel, so results must agree to float
    tolerance.  Only suitable for small planes/kernels (used in tests).
    """
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2:
        raise ToneMapError(f"blur_2d_direct expects a 2-D plane, got {plane.shape}")
    coeffs = kernel.coefficients
    kernel_2d = np.outer(coeffs, coeffs)
    radius = kernel.radius
    padded = np.pad(plane, radius, mode="edge")
    height, width = plane.shape
    out = np.zeros_like(plane, dtype=np.float64)
    for dy in range(kernel.taps):
        for dx in range(kernel.taps):
            out += kernel_2d[dy, dx] * padded[dy : dy + height, dx : dx + width]
    return out
