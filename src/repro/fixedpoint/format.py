"""Fixed-point format descriptions (the ``<W, I, Q, O>`` of ``ap_fixed``).

A :class:`FixedFormat` fully determines how a real number is mapped onto a
machine integer: total word length ``W``, integer bits ``I`` (which may lie
outside ``[0, W]`` exactly as in Vivado HLS), signedness, a quantization
mode applied when precision is lost, and an overflow mode applied when the
value exceeds the representable range.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.errors import BusAlignmentError, FixedPointError

#: Widths accepted for accelerator arguments by SDSoC (paper section III-C).
BUS_ALIGNED_WIDTHS = (8, 16, 32, 64)

#: Maximum word length supported by the NumPy-backed implementation.  Raw
#: values are held in ``int64``, so full-precision products must fit 63 bits.
MAX_WORD_LENGTH = 63


class Quant(enum.Enum):
    """Quantization modes, named after their Vivado HLS counterparts."""

    #: Truncate toward minus infinity (``floor``); the HLS default.
    TRN = "TRN"
    #: Truncate toward zero.
    TRN_ZERO = "TRN_ZERO"
    #: Round half up (toward plus infinity).
    RND = "RND"
    #: Round, ties toward zero.
    RND_ZERO = "RND_ZERO"
    #: Round, ties away from zero.
    RND_INF = "RND_INF"
    #: Round, ties toward minus infinity.
    RND_MIN_INF = "RND_MIN_INF"
    #: Convergent rounding, ties to even (banker's rounding).
    RND_CONV = "RND_CONV"


class Overflow(enum.Enum):
    """Overflow modes, named after their Vivado HLS counterparts."""

    #: Saturate to the most positive / most negative value; the mode used
    #: by the paper's accelerator (saturating a blurred pixel is benign,
    #: wrapping would create severe artifacts).
    SAT = "SAT"
    #: Saturate to zero on overflow.
    SAT_ZERO = "SAT_ZERO"
    #: Saturate symmetrically (signed minimum becomes ``-(2**(W-1) - 1)``).
    SAT_SYM = "SAT_SYM"
    #: Two's-complement wrap-around; the HLS default.
    WRAP = "WRAP"


@dataclass(frozen=True)
class FixedFormat:
    """An ``ap_fixed``-style fixed-point format.

    Parameters
    ----------
    word_length:
        Total number of bits ``W`` (including the sign bit when signed).
    int_length:
        Number of integer bits ``I``.  The number of fractional bits is
        ``W - I`` and may be negative (coarse formats) or exceed ``W``
        (formats representing only tiny magnitudes), as in Vivado HLS.
    signed:
        Whether the format is two's complement (``ap_fixed``) or unsigned
        (``ap_ufixed``).
    quant:
        Quantization mode applied when a value has more precision than the
        format can hold.
    overflow:
        Overflow mode applied when a value is out of range.
    """

    word_length: int
    int_length: int
    signed: bool = True
    quant: Quant = Quant.TRN
    overflow: Overflow = Overflow.WRAP

    def __post_init__(self) -> None:
        if not isinstance(self.word_length, int) or isinstance(self.word_length, bool):
            raise FixedPointError(
                f"word_length must be an int, got {self.word_length!r}"
            )
        if not isinstance(self.int_length, int) or isinstance(self.int_length, bool):
            raise FixedPointError(f"int_length must be an int, got {self.int_length!r}")
        if self.word_length < 1:
            raise FixedPointError(
                f"word_length must be >= 1, got {self.word_length}"
            )
        if self.word_length > MAX_WORD_LENGTH:
            raise FixedPointError(
                f"word_length {self.word_length} exceeds the supported maximum "
                f"of {MAX_WORD_LENGTH} bits"
            )
        if self.signed and self.word_length < 1:
            raise FixedPointError("signed formats need at least 1 bit")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def frac_length(self) -> int:
        """Number of fractional bits ``F = W - I`` (may be negative)."""
        return self.word_length - self.int_length

    @property
    def resolution(self) -> float:
        """The value of one least-significant bit, ``2**-F``."""
        return 2.0 ** (-self.frac_length)

    @property
    def raw_min(self) -> int:
        """Smallest representable raw (integer) value."""
        if not self.signed:
            return 0
        if self.overflow is Overflow.SAT_SYM:
            return -(2 ** (self.word_length - 1) - 1)
        return -(2 ** (self.word_length - 1))

    @property
    def raw_max(self) -> int:
        """Largest representable raw (integer) value."""
        if self.signed:
            return 2 ** (self.word_length - 1) - 1
        return 2**self.word_length - 1

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.raw_min * self.resolution

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.raw_max * self.resolution

    @property
    def is_bus_aligned(self) -> bool:
        """Whether ``W`` is a legal SDSoC accelerator-argument width."""
        return self.word_length in BUS_ALIGNED_WIDTHS

    # ------------------------------------------------------------------
    # Format algebra (ap_fixed widening rules)
    # ------------------------------------------------------------------
    def add_result(self, other: "FixedFormat") -> "FixedFormat":
        """Format of a full-precision sum, per ap_fixed widening rules.

        The integer part grows by one bit to hold the carry; the fractional
        part is the finer of the two operands.
        """
        int_bits = max(self.int_length, other.int_length) + 1
        frac_bits = max(self.frac_length, other.frac_length)
        signed = self.signed or other.signed
        return FixedFormat(
            word_length=int_bits + frac_bits,
            int_length=int_bits,
            signed=signed,
            quant=self.quant,
            overflow=self.overflow,
        )

    def mul_result(self, other: "FixedFormat") -> "FixedFormat":
        """Format of a full-precision product, per ap_fixed widening rules."""
        return FixedFormat(
            word_length=self.word_length + other.word_length,
            int_length=self.int_length + other.int_length,
            signed=self.signed or other.signed,
            quant=self.quant,
            overflow=self.overflow,
        )

    def with_modes(
        self, quant: Quant | None = None, overflow: Overflow | None = None
    ) -> "FixedFormat":
        """Return a copy with different quantization/overflow modes."""
        return replace(
            self,
            quant=quant if quant is not None else self.quant,
            overflow=overflow if overflow is not None else self.overflow,
        )

    def representable(self, value: float) -> bool:
        """Whether *value* lies within this format's range (pre-quantization)."""
        return self.min_value <= value <= self.max_value

    def __str__(self) -> str:
        kind = "ap_fixed" if self.signed else "ap_ufixed"
        return (
            f"{kind}<{self.word_length},{self.int_length},"
            f"{self.quant.value},{self.overflow.value}>"
        )


def check_bus_alignment(fmt: FixedFormat) -> None:
    """Raise :class:`BusAlignmentError` unless *fmt* can cross the PS/PL bus.

    SDSoC requires hardware-function argument widths of 8, 16, 32 or 64
    bits to guarantee AXI bus alignment (paper section III-C).  The paper
    chose 16 bits for the fixed-point blur for exactly this reason.
    """
    if not fmt.is_bus_aligned:
        raise BusAlignmentError(
            f"{fmt} has word length {fmt.word_length}; SDSoC accelerator "
            f"arguments must be one of {BUS_ALIGNED_WIDTHS} bits wide"
        )
