"""Float-to-fixed conversion analysis.

Converting the Gaussian blur from 32-bit float to 16-bit fixed point
(paper section III-C) requires choosing integer/fraction splits that cover
the dynamic range of each signal while minimizing quantization noise.
This module provides the range analysis and error reporting used to make
(and document) that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import FixedPointError
from repro.fixedpoint.array import quantize_array, raw_to_float
from repro.fixedpoint.format import FixedFormat, Overflow, Quant


@dataclass(frozen=True)
class RangeReport:
    """Observed dynamic range of a signal."""

    min_value: float
    max_value: float

    @property
    def max_abs(self) -> float:
        return max(abs(self.min_value), abs(self.max_value))

    @property
    def needs_sign(self) -> bool:
        return self.min_value < 0.0


@dataclass(frozen=True)
class QuantizationErrorStats:
    """Error statistics of quantizing a signal into a format.

    ``snr_db`` is the signal-to-quantization-noise ratio; ``inf`` when the
    quantization is exact.
    """

    max_abs_error: float
    rms_error: float
    snr_db: float
    saturated_fraction: float


def value_range(values: np.ndarray) -> RangeReport:
    """Observed min/max of a float array."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise FixedPointError("cannot analyse the range of an empty array")
    if not np.all(np.isfinite(values)):
        raise FixedPointError("range analysis requires finite values")
    return RangeReport(float(values.min()), float(values.max()))


def integer_bits_required(max_abs: float, signed: bool) -> int:
    """Minimum integer bits so that ``|value| <= max_abs`` is representable.

    For signed formats this counts the sign bit (as ap_fixed's ``I`` does).
    A ``max_abs`` of 0 needs no magnitude bits.
    """
    if max_abs < 0:
        raise FixedPointError("max_abs must be non-negative")
    if max_abs == 0:
        magnitude_bits = 0
    else:
        # Smallest i with max_abs < 2**i.  Values exactly at a power of two
        # still need that power representable, hence the nudge for exact
        # powers: 1.0 needs i=1 (unsigned range [0, 2) at resolution below).
        magnitude_bits = math.floor(math.log2(max_abs)) + 1
        if 2.0 ** (magnitude_bits - 1) > max_abs:
            magnitude_bits -= 1
    return magnitude_bits + (1 if signed else 0)


def suggest_format(
    values: np.ndarray,
    word_length: int,
    signed: bool | None = None,
    quant: Quant = Quant.RND,
    overflow: Overflow = Overflow.SAT,
    headroom_bits: int = 0,
) -> FixedFormat:
    """Pick the finest format of *word_length* bits covering *values*.

    The integer length is the minimum needed for the observed range plus
    *headroom_bits* (use headroom when downstream accumulation can grow the
    magnitude, e.g. a convolution accumulator).  The paper's blur operates
    on normalized pixels in ``[0, 1]``, for which this yields the
    ``ap_fixed<16, 1>``-style formats used by the fixed-point accelerator.
    """
    report = value_range(values)
    if signed is None:
        signed = report.needs_sign
    if report.needs_sign and not signed:
        raise FixedPointError(
            "values contain negatives but an unsigned format was requested"
        )
    int_length = integer_bits_required(report.max_abs, signed) + headroom_bits
    # A value exactly equal to 2**(i_magnitude) (e.g. max == 1.0 with one
    # integer bit) saturates to one LSB below; that is accepted and reported
    # by quantization_error_stats rather than silently widened, matching
    # what a designer sees in practice.
    return FixedFormat(
        word_length=word_length,
        int_length=int_length,
        signed=signed,
        quant=quant,
        overflow=overflow,
    )


def quantization_error_stats(
    values: np.ndarray, fmt: FixedFormat
) -> QuantizationErrorStats:
    """Quantize *values* into *fmt* and report the resulting error."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise FixedPointError("cannot quantize an empty array")
    raw = quantize_array(values, fmt)
    recon = raw_to_float(raw, fmt)
    err = recon - values
    max_abs_error = float(np.max(np.abs(err)))
    rms = float(np.sqrt(np.mean(err**2)))
    signal_power = float(np.mean(values**2))
    if rms == 0.0:
        snr_db = math.inf
    elif signal_power == 0.0:
        snr_db = -math.inf
    else:
        snr_db = 10.0 * math.log10(signal_power / rms**2)
    saturated = np.logical_or(
        values > fmt.max_value + 0.5 * fmt.resolution,
        values < fmt.min_value - 0.5 * fmt.resolution,
    )
    return QuantizationErrorStats(
        max_abs_error=max_abs_error,
        rms_error=rms,
        snr_db=snr_db,
        saturated_fraction=float(np.mean(saturated)),
    )
