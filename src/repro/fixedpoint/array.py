"""Vectorized fixed-point arrays backed by NumPy ``int64`` raw values.

The accelerator functional models process whole images, so a scalar
:class:`~repro.fixedpoint.apfixed.ApFixed` per pixel would be prohibitively
slow.  :class:`FixedArray` stores the raw integers of an entire array in an
``int64`` ndarray and applies quantization / overflow / widening rules
vectorized.  The semantics match ``ApFixed`` exactly (property-tested in
``tests/test_properties_fixedpoint.py``).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import FixedPointError
from repro.fixedpoint.apfixed import ApFixed
from repro.fixedpoint.format import MAX_WORD_LENGTH, FixedFormat, Overflow, Quant

ArrayLike = Union[np.ndarray, float, int]


def quantize_array(values: np.ndarray, fmt: FixedFormat) -> np.ndarray:
    """Quantize a float array into raw integers of *fmt*.

    Returns an ``int64`` array of raw values (quantization then overflow
    applied).  Uses float64 intermediates: exact for word lengths up to 52
    bits, which covers every format used in the paper (max 32).
    """
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise FixedPointError("cannot quantize non-finite values")
    scaled = values * (2.0 ** fmt.frac_length)
    raw = _quantize_scaled_array(scaled, fmt.quant)
    return _overflow_array(raw, fmt)


def raw_to_float(raw: np.ndarray, fmt: FixedFormat) -> np.ndarray:
    """Convert raw integers of *fmt* back to float64 real values."""
    return np.asarray(raw, dtype=np.float64) * (2.0 ** (-fmt.frac_length))


def _quantize_scaled_array(scaled: np.ndarray, quant: Quant) -> np.ndarray:
    """Apply a quantization mode to pre-scaled float values."""
    if quant is Quant.TRN:
        out = np.floor(scaled)
    elif quant is Quant.TRN_ZERO:
        out = np.trunc(scaled)
    elif quant is Quant.RND:
        out = np.floor(scaled + 0.5)
    elif quant is Quant.RND_MIN_INF:
        out = np.ceil(scaled - 0.5)
    elif quant is Quant.RND_ZERO:
        out = np.where(scaled >= 0, np.ceil(scaled - 0.5), np.floor(scaled + 0.5))
    elif quant is Quant.RND_INF:
        out = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
    elif quant is Quant.RND_CONV:
        out = np.rint(scaled)  # ties to even
    else:  # pragma: no cover - exhaustive over enum
        raise FixedPointError(f"unsupported quantization mode {quant!r}")
    return out.astype(np.int64)


def _overflow_array(raw: np.ndarray, fmt: FixedFormat) -> np.ndarray:
    """Apply *fmt*'s overflow mode to an unconstrained raw integer array."""
    lo, hi = fmt.raw_min, fmt.raw_max
    mode = fmt.overflow
    if mode is Overflow.SAT or mode is Overflow.SAT_SYM:
        return np.clip(raw, lo, hi)
    if mode is Overflow.SAT_ZERO:
        return np.where((raw < lo) | (raw > hi), 0, raw)
    if mode is Overflow.WRAP:
        span = np.int64(1) << np.int64(fmt.word_length)
        wrapped = np.bitwise_and(raw, span - 1)
        if fmt.signed:
            high = np.int64(1) << np.int64(fmt.word_length - 1)
            wrapped = np.where(wrapped >= high, wrapped - span, wrapped)
        return wrapped
    raise FixedPointError(f"unsupported overflow mode {mode!r}")  # pragma: no cover


class FixedArray:
    """An ndarray of fixed-point values sharing one format.

    Like :class:`ApFixed`, arithmetic widens exactly and :meth:`cast`
    quantizes.  The combined word length of exact intermediates must stay
    within ``int64``; :func:`_check_width` raises otherwise, which in
    practice forces accelerator models to insert the same intermediate
    casts a hardware designer would.
    """

    __slots__ = ("_raw", "_fmt")

    def __init__(self, raw: np.ndarray, fmt: FixedFormat):
        raw = np.asarray(raw)
        if not np.issubdtype(raw.dtype, np.integer):
            raise FixedPointError(
                f"raw array must be integer-typed, got dtype {raw.dtype}"
            )
        raw = raw.astype(np.int64)
        if raw.size and (raw.min() < fmt.raw_min or raw.max() > fmt.raw_max):
            raise FixedPointError(
                f"raw values out of range [{fmt.raw_min}, {fmt.raw_max}] for {fmt}"
            )
        self._raw = raw
        self._fmt = fmt

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_float(cls, values: ArrayLike, fmt: FixedFormat) -> "FixedArray":
        """Quantize a float array into *fmt*."""
        return cls(quantize_array(np.asarray(values, dtype=np.float64), fmt), fmt)

    @classmethod
    def zeros(cls, shape: tuple, fmt: FixedFormat) -> "FixedArray":
        """An all-zero fixed-point array."""
        return cls(np.zeros(shape, dtype=np.int64), fmt)

    @classmethod
    def full(cls, shape: tuple, value: ApFixed) -> "FixedArray":
        """An array filled with the bit pattern of a scalar."""
        return cls(np.full(shape, value.raw, dtype=np.int64), value.fmt)

    @property
    def raw(self) -> np.ndarray:
        """Raw integer values (a view; treat as read-only)."""
        return self._raw

    @property
    def fmt(self) -> FixedFormat:
        """Shared fixed-point format."""
        return self._fmt

    @property
    def shape(self) -> tuple:
        return self._raw.shape

    @property
    def size(self) -> int:
        return self._raw.size

    def to_float(self) -> np.ndarray:
        """Exact real values as float64."""
        return raw_to_float(self._raw, self._fmt)

    def cast(self, fmt: FixedFormat) -> "FixedArray":
        """Re-quantize every element into *fmt*.

        Narrowing in the TRN and RND modes stays in pure integer
        arithmetic — an arithmetic right shift is exactly ``floor(x/2^s)``
        and ``(x + 2^(s-1)) >> s`` is exactly ``floor(x/2^s + 1/2)`` — so
        the blur hot path never round-trips raws through float64.  The
        remaining modes (and extreme shifts) use the float64 intermediate,
        exact for word lengths up to 52 bits.
        """
        shift = fmt.frac_length - self._fmt.frac_length
        if shift >= 0:
            _check_width(self._fmt.word_length + shift)
            raw = self._raw << np.int64(shift)
        else:
            s = -shift
            if fmt.quant is Quant.TRN and s < 63:
                raw = self._raw >> np.int64(s)
            elif fmt.quant is Quant.RND and s < 62 and self._fmt.word_length < 62:
                raw = (self._raw + (np.int64(1) << np.int64(s - 1))) >> np.int64(s)
            else:
                scaled = self._raw.astype(np.float64) * (2.0 ** shift)
                raw = _quantize_scaled_array(scaled, fmt.quant)
        return FixedArray(_overflow_array(raw, fmt), fmt)

    # ------------------------------------------------------------------
    # Exact widening arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "FixedArray") -> "FixedArray":
        other = self._coerce(other)
        _check_add_width(self._fmt, other._fmt)
        fmt = self._fmt.add_result(other._fmt)
        a = self._raw << np.int64(fmt.frac_length - self._fmt.frac_length)
        b = other._raw << np.int64(fmt.frac_length - other._fmt.frac_length)
        return FixedArray(a + b, fmt)

    def __sub__(self, other: "FixedArray") -> "FixedArray":
        other = self._coerce(other)
        _check_add_width(self._fmt, other._fmt)
        fmt = self._fmt.add_result(other._fmt)
        a = self._raw << np.int64(fmt.frac_length - self._fmt.frac_length)
        b = other._raw << np.int64(fmt.frac_length - other._fmt.frac_length)
        return FixedArray(a - b, fmt)

    def __mul__(self, other: Union["FixedArray", ApFixed]) -> "FixedArray":
        other = self._coerce(other)
        _check_width(self._fmt.word_length + other._fmt.word_length)
        fmt = self._fmt.mul_result(other._fmt)
        return FixedArray(self._raw * other._raw, fmt)

    def _coerce(self, other: Union["FixedArray", ApFixed]) -> "FixedArray":
        if isinstance(other, FixedArray):
            return other
        if isinstance(other, ApFixed):
            return FixedArray(
                np.full(self._raw.shape, other.raw, dtype=np.int64), other.fmt
            )
        raise TypeError(
            f"FixedArray arithmetic requires FixedArray or ApFixed operands, "
            f"got {type(other)!r}"
        )

    # ------------------------------------------------------------------
    # Indexing and iteration
    # ------------------------------------------------------------------
    def __getitem__(self, key) -> "FixedArray":
        item = self._raw[key]
        return FixedArray(np.asarray(item), self._fmt)

    def element(self, key) -> ApFixed:
        """A single element as a scalar :class:`ApFixed`."""
        return ApFixed(int(self._raw[key]), self._fmt)

    def __len__(self) -> int:
        return len(self._raw)

    def __repr__(self) -> str:
        return f"FixedArray(shape={self.shape}, fmt={self._fmt})"


def _check_width(word_length: int) -> None:
    if word_length > MAX_WORD_LENGTH:
        raise FixedPointError(
            f"intermediate word length {word_length} exceeds {MAX_WORD_LENGTH} "
            "bits; insert an explicit cast() to narrow the accumulator, as a "
            "hardware design would"
        )


def _check_add_width(a: FixedFormat, b: FixedFormat) -> None:
    int_bits = max(a.int_length, b.int_length) + 1
    frac_bits = max(a.frac_length, b.frac_length)
    _check_width(int_bits + frac_bits)
