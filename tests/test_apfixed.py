"""Tests for repro.fixedpoint.apfixed (scalar ap_fixed semantics)."""

import pytest

from repro.errors import FixedPointError
from repro.fixedpoint import ApFixed, FixedFormat, Overflow, Quant

Q8_8_SAT = FixedFormat(16, 8, quant=Quant.RND, overflow=Overflow.SAT)
UQ1_15 = FixedFormat(16, 1, signed=False, quant=Quant.RND, overflow=Overflow.SAT)


class TestConstruction:
    def test_from_float_exact(self):
        x = ApFixed.from_float(1.5, Q8_8_SAT)
        assert x.to_float() == 1.5
        assert x.raw == int(1.5 * 2**8)

    def test_from_float_negative(self):
        x = ApFixed.from_float(-2.25, Q8_8_SAT)
        assert x.to_float() == -2.25

    def test_raw_constructor(self):
        x = ApFixed(384, Q8_8_SAT)
        assert x.to_float() == 1.5

    def test_raw_out_of_range_rejected(self):
        with pytest.raises(FixedPointError):
            ApFixed(2**15, Q8_8_SAT)

    def test_nan_rejected(self):
        with pytest.raises(FixedPointError):
            ApFixed.from_float(float("nan"), Q8_8_SAT)

    def test_inf_rejected(self):
        with pytest.raises(FixedPointError):
            ApFixed.from_float(float("inf"), Q8_8_SAT)

    def test_from_int(self):
        x = ApFixed.from_float(3, Q8_8_SAT)
        assert x.to_float() == 3.0

    def test_float_dunder(self):
        assert float(ApFixed.from_float(0.5, Q8_8_SAT)) == 0.5


class TestQuantizationModes:
    def _fmt(self, quant):
        return FixedFormat(8, 8, quant=quant, overflow=Overflow.SAT)

    def test_trn_floors(self):
        fmt = self._fmt(Quant.TRN)
        assert ApFixed.from_float(1.7, fmt).to_float() == 1.0
        assert ApFixed.from_float(-1.3, fmt).to_float() == -2.0

    def test_trn_zero_truncates_toward_zero(self):
        fmt = self._fmt(Quant.TRN_ZERO)
        assert ApFixed.from_float(1.7, fmt).to_float() == 1.0
        assert ApFixed.from_float(-1.7, fmt).to_float() == -1.0

    def test_rnd_half_up(self):
        fmt = self._fmt(Quant.RND)
        assert ApFixed.from_float(1.5, fmt).to_float() == 2.0
        assert ApFixed.from_float(-1.5, fmt).to_float() == -1.0
        assert ApFixed.from_float(1.4, fmt).to_float() == 1.0

    def test_rnd_min_inf_half_down(self):
        fmt = self._fmt(Quant.RND_MIN_INF)
        assert ApFixed.from_float(1.5, fmt).to_float() == 1.0
        assert ApFixed.from_float(-1.5, fmt).to_float() == -2.0
        assert ApFixed.from_float(1.6, fmt).to_float() == 2.0

    def test_rnd_zero_ties_toward_zero(self):
        fmt = self._fmt(Quant.RND_ZERO)
        assert ApFixed.from_float(1.5, fmt).to_float() == 1.0
        assert ApFixed.from_float(-1.5, fmt).to_float() == -1.0
        assert ApFixed.from_float(1.6, fmt).to_float() == 2.0

    def test_rnd_inf_ties_away_from_zero(self):
        fmt = self._fmt(Quant.RND_INF)
        assert ApFixed.from_float(1.5, fmt).to_float() == 2.0
        assert ApFixed.from_float(-1.5, fmt).to_float() == -2.0

    def test_rnd_conv_ties_to_even(self):
        fmt = self._fmt(Quant.RND_CONV)
        assert ApFixed.from_float(1.5, fmt).to_float() == 2.0
        assert ApFixed.from_float(2.5, fmt).to_float() == 2.0
        assert ApFixed.from_float(-1.5, fmt).to_float() == -2.0
        assert ApFixed.from_float(-2.5, fmt).to_float() == -2.0

    def test_exact_values_unchanged_by_all_modes(self):
        for quant in Quant:
            fmt = FixedFormat(16, 8, quant=quant, overflow=Overflow.SAT)
            assert ApFixed.from_float(1.25, fmt).to_float() == 1.25


class TestOverflowModes:
    def test_sat_clamps_high(self):
        fmt = FixedFormat(8, 8, overflow=Overflow.SAT)
        assert ApFixed.from_float(500.0, fmt).to_float() == 127.0

    def test_sat_clamps_low(self):
        fmt = FixedFormat(8, 8, overflow=Overflow.SAT)
        assert ApFixed.from_float(-500.0, fmt).to_float() == -128.0

    def test_sat_zero(self):
        fmt = FixedFormat(8, 8, overflow=Overflow.SAT_ZERO)
        assert ApFixed.from_float(500.0, fmt).to_float() == 0.0

    def test_sat_sym(self):
        fmt = FixedFormat(8, 8, overflow=Overflow.SAT_SYM)
        assert ApFixed.from_float(-500.0, fmt).to_float() == -127.0

    def test_wrap(self):
        fmt = FixedFormat(8, 8, overflow=Overflow.WRAP)
        assert ApFixed.from_float(128.0, fmt).to_float() == -128.0
        assert ApFixed.from_float(256.0, fmt).to_float() == 0.0

    def test_wrap_unsigned(self):
        fmt = FixedFormat(8, 8, signed=False, overflow=Overflow.WRAP)
        assert ApFixed.from_float(256.0, fmt).to_float() == 0.0
        assert ApFixed.from_float(257.0, fmt).to_float() == 1.0


class TestArithmetic:
    def test_add_is_exact(self):
        a = ApFixed.from_float(1.5, Q8_8_SAT)
        b = ApFixed.from_float(2.25, Q8_8_SAT)
        c = a + b
        assert c.to_float() == 3.75
        assert c.fmt.int_length == 9  # one growth bit

    def test_sub(self):
        a = ApFixed.from_float(1.0, Q8_8_SAT)
        b = ApFixed.from_float(2.5, Q8_8_SAT)
        assert (a - b).to_float() == -1.5

    def test_mul_is_exact(self):
        a = ApFixed.from_float(1.5, Q8_8_SAT)
        b = ApFixed.from_float(-2.5, Q8_8_SAT)
        c = a * b
        assert c.to_float() == -3.75
        assert c.fmt.word_length == 32

    def test_mul_mixed_formats(self):
        a = ApFixed.from_float(0.5, UQ1_15)
        b = ApFixed.from_float(0.25, UQ1_15)
        assert (a * b).to_float() == 0.125

    def test_neg(self):
        a = ApFixed.from_float(1.5, Q8_8_SAT)
        assert (-a).to_float() == -1.5

    def test_neg_of_minimum_is_representable(self):
        fmt = FixedFormat(8, 8)
        a = ApFixed(-128, fmt)
        assert (-a).to_float() == 128.0  # widened by one bit

    def test_shift_right_moves_binary_point(self):
        a = ApFixed.from_float(1.0, Q8_8_SAT)
        assert (a >> 2).to_float() == 0.25
        assert (a >> 2).raw == a.raw  # same bits, different point

    def test_shift_left(self):
        a = ApFixed.from_float(1.0, Q8_8_SAT)
        assert (a << 3).to_float() == 8.0

    def test_negative_shift_rejected(self):
        a = ApFixed.from_float(1.0, Q8_8_SAT)
        with pytest.raises(FixedPointError):
            a >> -1
        with pytest.raises(FixedPointError):
            a << -1

    def test_mixing_with_float_raises_typeerror(self):
        a = ApFixed.from_float(1.0, Q8_8_SAT)
        with pytest.raises(TypeError):
            a + 1.0  # explicit quantization required

    def test_mac_chain_matches_float(self):
        # A convolution-style MAC chain stays exact in the widened formats.
        data = [0.125, 0.5, 0.25]
        coeffs = [0.25, 0.5, 0.25]
        acc = ApFixed.from_float(0.0, UQ1_15)
        for d, c in zip(data, coeffs):
            acc = acc + ApFixed.from_float(d, UQ1_15) * ApFixed.from_float(c, UQ1_15)
        expected = sum(d * c for d, c in zip(data, coeffs))
        assert acc.to_float() == pytest.approx(expected, abs=1e-9)


class TestCast:
    def test_cast_to_narrower_quantizes(self):
        wide = FixedFormat(32, 8, quant=Quant.RND, overflow=Overflow.SAT)
        narrow = FixedFormat(8, 8, quant=Quant.RND, overflow=Overflow.SAT)
        x = ApFixed.from_float(3.6, wide)
        assert x.cast(narrow).to_float() == 4.0

    def test_cast_to_wider_is_lossless(self):
        narrow = FixedFormat(8, 4, quant=Quant.RND, overflow=Overflow.SAT)
        wide = FixedFormat(32, 8, quant=Quant.RND, overflow=Overflow.SAT)
        x = ApFixed.from_float(3.25, narrow)
        assert x.cast(wide).to_float() == x.to_float()

    def test_cast_saturates(self):
        wide = FixedFormat(32, 16, quant=Quant.RND, overflow=Overflow.SAT)
        narrow = FixedFormat(8, 4, quant=Quant.RND, overflow=Overflow.SAT)
        x = ApFixed.from_float(100.0, wide)
        assert x.cast(narrow).to_float() == narrow.max_value


class TestComparison:
    def test_eq_same_format(self):
        assert ApFixed.from_float(1.5, Q8_8_SAT) == ApFixed.from_float(1.5, Q8_8_SAT)

    def test_eq_across_formats(self):
        a = ApFixed.from_float(0.5, Q8_8_SAT)
        b = ApFixed.from_float(0.5, UQ1_15)
        assert a == b
        assert hash(a) == hash(b)

    def test_ordering(self):
        a = ApFixed.from_float(0.25, Q8_8_SAT)
        b = ApFixed.from_float(0.5, UQ1_15)
        assert a < b
        assert b > a
        assert a <= a
        assert b >= b

    def test_eq_other_type_not_equal(self):
        assert (ApFixed.from_float(1.0, Q8_8_SAT) == 1.0) is False

    def test_repr_mentions_value(self):
        assert "1.5" in repr(ApFixed.from_float(1.5, Q8_8_SAT))
