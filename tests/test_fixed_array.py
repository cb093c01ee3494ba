"""Tests for repro.fixedpoint.array (vectorized fixed point)."""

import numpy as np
import pytest

from repro.errors import FixedPointError
from repro.fixedpoint import (
    ApFixed,
    FixedArray,
    FixedFormat,
    Overflow,
    Quant,
    quantize_array,
    raw_to_float,
)

FMT = FixedFormat(16, 2, quant=Quant.RND, overflow=Overflow.SAT)
COEFF = FixedFormat(16, 0, signed=False, quant=Quant.RND, overflow=Overflow.SAT)


class TestQuantizeArray:
    def test_exact_values(self):
        vals = np.array([0.0, 0.5, -0.25, 1.0])
        raw = quantize_array(vals, FMT)
        np.testing.assert_array_equal(raw_to_float(raw, FMT), vals)

    def test_rounding(self):
        fmt = FixedFormat(8, 8, quant=Quant.RND, overflow=Overflow.SAT)
        raw = quantize_array(np.array([1.5, -1.5, 1.4]), fmt)
        np.testing.assert_array_equal(raw, [2, -1, 1])

    def test_saturation(self):
        raw = quantize_array(np.array([100.0, -100.0]), FMT)
        assert raw[0] == FMT.raw_max
        assert raw[1] == FMT.raw_min

    def test_wrap(self):
        fmt = FixedFormat(8, 8, overflow=Overflow.WRAP)
        raw = quantize_array(np.array([128.0, 256.0, -129.0]), fmt)
        np.testing.assert_array_equal(raw, [-128, 0, 127])

    def test_sat_zero(self):
        fmt = FixedFormat(8, 8, overflow=Overflow.SAT_ZERO)
        raw = quantize_array(np.array([200.0, 5.0]), fmt)
        np.testing.assert_array_equal(raw, [0, 5])

    def test_non_finite_rejected(self):
        with pytest.raises(FixedPointError):
            quantize_array(np.array([1.0, np.nan]), FMT)
        with pytest.raises(FixedPointError):
            quantize_array(np.array([np.inf]), FMT)

    @pytest.mark.parametrize("quant", list(Quant))
    def test_matches_scalar_for_all_modes(self, quant):
        fmt = FixedFormat(10, 3, quant=quant, overflow=Overflow.SAT)
        values = np.linspace(-4.3, 4.3, 97)
        raw = quantize_array(values, fmt)
        for v, r in zip(values, raw):
            assert int(r) == ApFixed.from_float(float(v), fmt).raw, (quant, v)


class TestFixedArrayBasics:
    def test_from_float_roundtrip(self):
        vals = np.array([[0.5, -0.25], [1.0, 0.0]])
        arr = FixedArray.from_float(vals, FMT)
        np.testing.assert_array_equal(arr.to_float(), vals)
        assert arr.shape == (2, 2)
        assert arr.size == 4

    def test_zeros(self):
        arr = FixedArray.zeros((3, 4), FMT)
        assert arr.shape == (3, 4)
        assert np.all(arr.raw == 0)

    def test_full(self):
        scalar = ApFixed.from_float(0.75, FMT)
        arr = FixedArray.full((2, 2), scalar)
        np.testing.assert_array_equal(arr.to_float(), 0.75)

    def test_float_raw_rejected(self):
        with pytest.raises(FixedPointError):
            FixedArray(np.array([0.5]), FMT)

    def test_out_of_range_raw_rejected(self):
        with pytest.raises(FixedPointError):
            FixedArray(np.array([2**20]), FMT)

    def test_getitem_returns_fixed_array(self):
        arr = FixedArray.from_float(np.arange(4) / 8.0, FMT)
        sub = arr[1:3]
        assert isinstance(sub, FixedArray)
        np.testing.assert_array_equal(sub.to_float(), [0.125, 0.25])

    def test_element_returns_scalar(self):
        arr = FixedArray.from_float(np.array([0.5, 0.25]), FMT)
        el = arr.element(1)
        assert isinstance(el, ApFixed)
        assert el.to_float() == 0.25

    def test_len_and_repr(self):
        arr = FixedArray.from_float(np.zeros(5), FMT)
        assert len(arr) == 5
        assert "FixedArray" in repr(arr)


class TestFixedArrayArithmetic:
    def test_add_matches_scalar(self):
        a = FixedArray.from_float(np.array([0.5, -0.25]), FMT)
        b = FixedArray.from_float(np.array([0.125, 0.75]), FMT)
        c = a + b
        sa = a.element(0) + b.element(0)
        assert c.element(0) == sa
        assert c.fmt == FMT.add_result(FMT)

    def test_sub(self):
        a = FixedArray.from_float(np.array([0.5]), FMT)
        b = FixedArray.from_float(np.array([0.75]), FMT)
        np.testing.assert_allclose((a - b).to_float(), [-0.25])

    def test_mul_matches_scalar(self):
        a = FixedArray.from_float(np.array([0.5, -0.25]), FMT)
        b = FixedArray.from_float(np.array([0.5, 0.5]), COEFF)
        c = a * b
        np.testing.assert_allclose(c.to_float(), [0.25, -0.125])
        assert c.fmt == FMT.mul_result(COEFF)

    def test_add_with_apfixed_broadcast(self):
        a = FixedArray.from_float(np.array([0.5, 0.25]), FMT)
        k = ApFixed.from_float(0.25, FMT)
        np.testing.assert_allclose((a + k).to_float(), [0.75, 0.5])

    def test_width_overflow_guard(self):
        wide = FixedFormat(40, 8)
        a = FixedArray.from_float(np.array([1.0]), wide)
        with pytest.raises(FixedPointError, match="cast"):
            a * a  # 80-bit product cannot be held exactly

    def test_type_error_on_plain_ndarray(self):
        a = FixedArray.from_float(np.array([0.5]), FMT)
        with pytest.raises(TypeError):
            a + np.array([0.5])


class TestCast:
    def test_cast_narrower_rounds(self):
        wide = FixedFormat(32, 8, quant=Quant.RND, overflow=Overflow.SAT)
        narrow = FixedFormat(8, 8, quant=Quant.RND, overflow=Overflow.SAT)
        arr = FixedArray.from_float(np.array([3.6, -3.6]), wide)
        np.testing.assert_array_equal(arr.cast(narrow).to_float(), [4.0, -4.0])

    def test_cast_wider_lossless(self):
        wide = FixedFormat(32, 8, quant=Quant.RND, overflow=Overflow.SAT)
        arr = FixedArray.from_float(np.array([0.5, -0.125]), FMT)
        np.testing.assert_array_equal(arr.cast(wide).to_float(), arr.to_float())

    def test_cast_matches_scalar_cast(self):
        wide = FixedFormat(30, 10, quant=Quant.TRN, overflow=Overflow.SAT)
        narrow = FixedFormat(12, 4, quant=Quant.TRN, overflow=Overflow.SAT)
        vals = np.linspace(-7.9, 7.9, 41)
        arr = FixedArray.from_float(vals, wide).cast(narrow)
        for i, v in enumerate(vals):
            scalar = ApFixed.from_float(float(v), wide).cast(narrow)
            assert arr.element(i) == scalar

    def test_cast_saturates(self):
        wide = FixedFormat(32, 16, quant=Quant.RND, overflow=Overflow.SAT)
        narrow = FixedFormat(8, 4, quant=Quant.RND, overflow=Overflow.SAT)
        arr = FixedArray.from_float(np.array([1000.0]), wide)
        assert arr.cast(narrow).to_float()[0] == narrow.max_value
