"""Bit-accurate fixed-point Gaussian blur (the FxP accelerator's math).

Paper section III-C converts the blur from 32-bit floating point to the
Vivado HLS ``ap_fixed`` type with a 16-bit total width (16 being one of
the bus-aligned widths SDSoC accepts for accelerator arguments).  This
module reproduces that arithmetic exactly:

* pixels are quantized to a 16-bit fixed-point format on the way into the
  accelerator;
* filter coefficients are quantized to 16 bits (optionally re-normalized
  so their sum is exactly one, preserving DC gain as a careful hardware
  designer would);
* each separable pass accumulates exact products in a widened accumulator
  and re-quantizes the result to the 16-bit pixel format — including
  between the horizontal and vertical passes, because the hardware line
  buffer stores 16-bit pixels.

The output therefore differs from the float reference by exactly the
error the hardware would exhibit, which is what the paper's PSNR/SSIM
comparison (66 dB / 1.0) measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import math

import numpy as np

from repro.errors import ToneMapError
from repro.fixedpoint.array import FixedArray
from repro.fixedpoint.format import FixedFormat, Overflow, Quant, check_bus_alignment
from repro.tonemap.gaussian import GaussianKernel


def _default_data_fmt() -> FixedFormat:
    # ap_fixed<16, 2, RND, SAT>: sign + 1 integer bit so unit-range pixels
    # (including exactly 1.0) are representable, 14 fraction bits.
    return FixedFormat(16, 2, signed=True, quant=Quant.RND, overflow=Overflow.SAT)


def _default_coeff_fmt() -> FixedFormat:
    # ap_ufixed<16, 0, RND, SAT>: coefficients are positive and < 1.
    return FixedFormat(16, 0, signed=False, quant=Quant.RND, overflow=Overflow.SAT)


@dataclass(frozen=True)
class FixedBlurConfig:
    """Formats used by the fixed-point blur.

    Parameters
    ----------
    data_fmt:
        Pixel format at the accelerator boundary and in the line buffer.
        Must be bus-aligned (8/16/32/64 bits); the paper uses 16.
    coeff_fmt:
        Coefficient ROM format.
    renormalize_coefficients:
        Adjust the centre tap after quantization so the coefficient sum is
        exactly 1.0 in fixed point (unity DC gain).
    """

    data_fmt: FixedFormat = field(default_factory=_default_data_fmt)
    coeff_fmt: FixedFormat = field(default_factory=_default_coeff_fmt)
    renormalize_coefficients: bool = True

    def __post_init__(self) -> None:
        check_bus_alignment(self.data_fmt)

    def accumulator_fmt(self, taps: int) -> FixedFormat:
        """Widened accumulator format for a *taps*-tap MAC chain.

        Full-precision product plus ``ceil(log2(taps)) + 1`` guard bits,
        the standard sizing for a convolution accumulator.
        """
        product = self.data_fmt.mul_result(self.coeff_fmt)
        guard = max(1, math.ceil(math.log2(max(taps, 2)))) + 1
        return FixedFormat(
            word_length=product.word_length + guard,
            int_length=product.int_length + guard,
            signed=product.signed,
            quant=self.data_fmt.quant,
            overflow=self.data_fmt.overflow,
        )

    def quantized_coefficients(self, kernel: GaussianKernel) -> np.ndarray:
        """Coefficient raw values (int64) in ``coeff_fmt``.

        With ``renormalize_coefficients`` the centre tap absorbs the
        rounding residue so the raw sum equals ``2**F`` exactly (gain 1).
        Cached per ``(config, kernel)`` — both are frozen value types —
        so batch/service runs quantize the ROM once; the returned array is
        read-only.
        """
        return _quantized_coefficients_cached(self, kernel)


@lru_cache(maxsize=64)
def _quantized_coefficients_cached(
    config: FixedBlurConfig, kernel: GaussianKernel
) -> np.ndarray:
    coeffs = kernel.coefficients
    fixed = FixedArray.from_float(coeffs, config.coeff_fmt)
    raws = fixed.raw.copy()
    if config.renormalize_coefficients:
        target = 1 << config.coeff_fmt.frac_length
        residue = target - int(raws.sum())
        centre = kernel.radius
        adjusted = int(raws[centre]) + residue
        if not (config.coeff_fmt.raw_min <= adjusted <= config.coeff_fmt.raw_max):
            raise ToneMapError(
                "coefficient renormalization overflows the centre tap; "
                "use a wider coeff_fmt or disable renormalization"
            )
        raws[centre] = adjusted
    raws.setflags(write=False)
    return raws


def _fixed_pass_rows(
    raw: np.ndarray, coeff_raws: np.ndarray, config: FixedBlurConfig
) -> np.ndarray:
    """One horizontal fixed-point pass over raw pixel values.

    Operates along the last axis, so a ``(H, W)`` plane and an
    ``(N, H, W)`` stack take the identical code path — the batch case just
    covers N times as many rows per array operation.  Accumulates exact
    integer products then re-quantizes each output pixel back to
    ``data_fmt`` (what the hardware writes to its line buffer).

    Symmetric kernels take the folded path: mirrored taps share a raw
    coefficient, so the two shifted planes are added *before* the single
    multiply.  Integer addition is exact and commutes, and the one
    requantization happens after the full accumulation either way, so the
    folded pass is bit-exact against the per-tap loop (asserted in
    ``tests/test_blur_fastpaths.py``) while halving the multiply passes.
    Accumulators are preallocated once per pass instead of materializing a
    fresh product array per tap.
    """
    taps = coeff_raws.size
    radius = (taps - 1) // 2
    pad = [(0, 0)] * (raw.ndim - 1) + [(radius, radius)]
    padded = np.pad(raw, pad, mode="edge")
    width = raw.shape[-1]
    acc = np.empty_like(raw, dtype=np.int64)
    if taps > 1 and taps % 2 == 1 and np.array_equal(coeff_raws, coeff_raws[::-1]):
        np.multiply(
            padded[..., radius : radius + width], np.int64(coeff_raws[radius]),
            out=acc,
        )
        pair = np.empty_like(acc)
        for k in range(radius):
            mirror = 2 * radius - k
            np.add(
                padded[..., k : k + width],
                padded[..., mirror : mirror + width],
                out=pair,
            )
            pair *= np.int64(coeff_raws[k])
            acc += pair
    else:
        np.multiply(padded[..., 0:width], np.int64(coeff_raws[0]), out=acc)
        term = np.empty_like(acc)
        for k in range(1, taps):
            np.multiply(
                padded[..., k : k + width], np.int64(coeff_raws[k]), out=term
            )
            acc += term
    acc_fmt = config.accumulator_fmt(taps)
    return FixedArray(acc, acc_fmt).cast(config.data_fmt).raw


def fixed_point_blur_plane(
    plane: np.ndarray,
    kernel: GaussianKernel,
    config: FixedBlurConfig = FixedBlurConfig(),
) -> np.ndarray:
    """Separable Gaussian blur in bit-accurate fixed point.

    Returns float64 values (the exact reals the output bits represent), so
    it is drop-in compatible with
    :data:`~repro.tonemap.pipeline.ToneMapParams.blur_fn`.  A one-plane
    :func:`fixed_point_blur_batch`, so the two share one code path.
    """
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2:
        raise ToneMapError(
            f"fixed_point_blur_plane expects a 2-D plane, got {plane.shape}"
        )
    return fixed_point_blur_batch(plane[np.newaxis], kernel, config)[0]


def fixed_point_blur_batch(
    planes: np.ndarray,
    kernel: GaussianKernel,
    config: FixedBlurConfig = FixedBlurConfig(),
) -> np.ndarray:
    """Bit-accurate fixed-point blur of a stacked ``(N, H, W)`` batch.

    One quantization of the whole stack, one horizontal and one vertical
    folded pass over all N planes per array operation.  The pass operates
    along the last axis, so each plane's integer arithmetic does not
    depend on its batchmates, and :func:`fixed_point_blur_plane` is this
    call on a one-plane stack; folding the mirrored taps across the whole
    stack amortizes the Python-level tap loop over N planes.  This is the
    batch runtime's fixed-point hot path (see ``docs/benchmarks.md`` for
    how its throughput is tracked).
    """
    planes = np.asarray(planes, dtype=np.float64)
    if planes.ndim != 3:
        raise ToneMapError(
            f"fixed_point_blur_batch expects a (N, H, W) stack, got {planes.shape}"
        )
    coeff_raws = config.quantized_coefficients(kernel)
    data = FixedArray.from_float(planes, config.data_fmt)
    horizontal = _fixed_pass_rows(data.raw, coeff_raws, config)
    transposed = np.ascontiguousarray(np.swapaxes(horizontal, 1, 2))
    vertical = np.swapaxes(
        _fixed_pass_rows(transposed, coeff_raws, config), 1, 2
    )
    return FixedArray(np.ascontiguousarray(vertical), config.data_fmt).to_float()


@dataclass(frozen=True)
class FixedBlurFn:
    """The fixed-point blur as a ``BlurFn`` for ``ToneMapParams.blur_fn``.

    A module-level value object rather than a closure, so parameters
    carrying it pickle as-is — to shard worker processes, forkserver
    respawns and spawned hosts alike.  Besides the per-plane call it
    exposes what the batch runtime uses:

    ``blur_batch``
        The stack-level entry point (:func:`fixed_point_blur_batch`);
        :class:`repro.runtime.BatchToneMapper` detects it and blurs the
        whole ``(N, H, W)`` luminance volume in one call instead of
        looping plane-by-plane.
    ``config``
        The :class:`FixedBlurConfig` whose formats the blur uses.
    ``trusted_finite``
        Marks the blur as repo-internal arithmetic that maps finite
        inputs to finite outputs (saturating fixed point cannot emit
        NaN/inf), so the batch runtime may wrap its outputs with the
        no-validation :meth:`repro.image.hdr.HDRImage.adopt` fast path.
        Arbitrary user ``blur_fn`` callables lack the attribute and keep
        full output validation.
    """

    config: FixedBlurConfig = field(default_factory=FixedBlurConfig)
    trusted_finite = True

    def __call__(self, plane: np.ndarray, kernel: GaussianKernel) -> np.ndarray:
        return fixed_point_blur_plane(plane, kernel, self.config)

    def blur_batch(self, planes: np.ndarray, kernel: GaussianKernel) -> np.ndarray:
        return fixed_point_blur_batch(planes, kernel, self.config)


def make_fixed_blur_fn(config: FixedBlurConfig = FixedBlurConfig()) -> FixedBlurFn:
    """The bit-accurate fixed-point blur over *config* (see :class:`FixedBlurFn`)."""
    return FixedBlurFn(config)
