"""Tests for repro.fixedpoint.format."""

import pytest

from repro.errors import BusAlignmentError, FixedPointError
from repro.fixedpoint import (
    BUS_ALIGNED_WIDTHS,
    FixedFormat,
    Overflow,
    Quant,
    check_bus_alignment,
)


class TestFixedFormatConstruction:
    def test_basic_signed(self):
        fmt = FixedFormat(16, 2)
        assert fmt.word_length == 16
        assert fmt.int_length == 2
        assert fmt.signed is True
        assert fmt.frac_length == 14

    def test_default_modes_match_hls_defaults(self):
        fmt = FixedFormat(16, 2)
        assert fmt.quant is Quant.TRN
        assert fmt.overflow is Overflow.WRAP

    def test_zero_word_length_rejected(self):
        with pytest.raises(FixedPointError):
            FixedFormat(0, 0)

    def test_negative_word_length_rejected(self):
        with pytest.raises(FixedPointError):
            FixedFormat(-4, 0)

    def test_word_length_above_63_rejected(self):
        with pytest.raises(FixedPointError):
            FixedFormat(64, 8)

    def test_non_int_word_length_rejected(self):
        with pytest.raises(FixedPointError):
            FixedFormat(16.0, 2)

    def test_bool_rejected(self):
        with pytest.raises(FixedPointError):
            FixedFormat(True, 0)

    def test_int_length_may_exceed_word_length(self):
        # ap_fixed allows I > W (coarse formats with negative F).
        fmt = FixedFormat(8, 12)
        assert fmt.frac_length == -4
        assert fmt.resolution == 16.0

    def test_negative_int_length_allowed(self):
        fmt = FixedFormat(8, -2)
        assert fmt.frac_length == 10
        assert fmt.resolution == 2.0**-10


class TestRanges:
    def test_signed_range(self):
        fmt = FixedFormat(8, 8)  # pure integer, signed
        assert fmt.raw_min == -128
        assert fmt.raw_max == 127
        assert fmt.min_value == -128.0
        assert fmt.max_value == 127.0

    def test_unsigned_range(self):
        fmt = FixedFormat(8, 8, signed=False)
        assert fmt.raw_min == 0
        assert fmt.raw_max == 255

    def test_fractional_range(self):
        fmt = FixedFormat(16, 1, signed=False)  # [0, 2) at 2^-15
        assert fmt.max_value == pytest.approx(2.0 - 2.0**-15)
        assert fmt.resolution == 2.0**-15

    def test_sat_sym_narrows_min(self):
        plain = FixedFormat(8, 8)
        sym = FixedFormat(8, 8, overflow=Overflow.SAT_SYM)
        assert plain.raw_min == -128
        assert sym.raw_min == -127

    def test_representable(self):
        fmt = FixedFormat(16, 2, signed=True)
        assert fmt.representable(1.0)
        assert fmt.representable(-2.0)
        assert not fmt.representable(2.0)
        assert not fmt.representable(100.0)


class TestFormatAlgebra:
    def test_add_result_grows_one_int_bit(self):
        a = FixedFormat(16, 2)
        b = FixedFormat(16, 2)
        c = a.add_result(b)
        assert c.int_length == 3
        assert c.frac_length == 14
        assert c.word_length == 17

    def test_add_result_mixed_precision(self):
        a = FixedFormat(16, 2)
        b = FixedFormat(12, 6)
        c = a.add_result(b)
        assert c.int_length == 7
        assert c.frac_length == 14

    def test_mul_result_sums_widths(self):
        a = FixedFormat(16, 2)
        b = FixedFormat(16, 0, signed=False)
        c = a.mul_result(b)
        assert c.word_length == 32
        assert c.int_length == 2
        assert c.signed is True

    def test_unsigned_plus_signed_is_signed(self):
        a = FixedFormat(8, 1, signed=False)
        b = FixedFormat(8, 1, signed=True)
        assert a.add_result(b).signed is True

    def test_with_modes(self):
        fmt = FixedFormat(16, 2)
        updated = fmt.with_modes(quant=Quant.RND, overflow=Overflow.SAT)
        assert updated.quant is Quant.RND
        assert updated.overflow is Overflow.SAT
        assert updated.word_length == fmt.word_length
        # Original unchanged (frozen dataclass).
        assert fmt.quant is Quant.TRN


class TestBusAlignment:
    @pytest.mark.parametrize("width", BUS_ALIGNED_WIDTHS[:3] + (64 - 1,))
    def test_aligned_widths(self, width):
        fmt = FixedFormat(width, 1)
        if width in BUS_ALIGNED_WIDTHS:
            check_bus_alignment(fmt)  # no raise
            assert fmt.is_bus_aligned
        else:
            with pytest.raises(BusAlignmentError):
                check_bus_alignment(fmt)

    def test_paper_width_16_is_aligned(self):
        # Section III-C: the paper chose 16 bits, an SDSoC-legal width.
        check_bus_alignment(FixedFormat(16, 6))

    def test_unaligned_width_raises(self):
        with pytest.raises(BusAlignmentError):
            check_bus_alignment(FixedFormat(12, 2))

    def test_error_is_fixedpoint_error(self):
        with pytest.raises(FixedPointError):
            check_bus_alignment(FixedFormat(24, 2))


class TestStr:
    def test_signed_str(self):
        assert str(FixedFormat(16, 2)) == "ap_fixed<16,2,TRN,WRAP>"

    def test_unsigned_str(self):
        fmt = FixedFormat(16, 0, signed=False, quant=Quant.RND, overflow=Overflow.SAT)
        assert str(fmt) == "ap_ufixed<16,0,RND,SAT>"
