"""Tests for repro.fixedpoint.convert (float-to-fixed analysis)."""

import math

import numpy as np
import pytest

from repro.errors import FixedPointError
from repro.fixedpoint import (
    FixedFormat,
    Overflow,
    Quant,
    integer_bits_required,
    quantization_error_stats,
    suggest_format,
    value_range,
)


class TestValueRange:
    def test_basic(self):
        report = value_range(np.array([-1.0, 0.5, 3.0]))
        assert report.min_value == -1.0
        assert report.max_value == 3.0
        assert report.max_abs == 3.0
        assert report.needs_sign

    def test_non_negative(self):
        report = value_range(np.array([0.0, 0.5]))
        assert not report.needs_sign

    def test_empty_rejected(self):
        with pytest.raises(FixedPointError):
            value_range(np.array([]))

    def test_nan_rejected(self):
        with pytest.raises(FixedPointError):
            value_range(np.array([np.nan]))


class TestIntegerBitsRequired:
    def test_zero_needs_none(self):
        assert integer_bits_required(0.0, signed=False) == 0
        assert integer_bits_required(0.0, signed=True) == 1

    def test_unit_range(self):
        # Values < 1 need 0 magnitude bits; exactly 1.0 needs 1.
        assert integer_bits_required(0.99, signed=False) == 0
        assert integer_bits_required(1.0, signed=False) == 1

    def test_powers_of_two(self):
        assert integer_bits_required(2.0, signed=False) == 2
        assert integer_bits_required(3.9, signed=False) == 2
        assert integer_bits_required(4.0, signed=False) == 3

    def test_sign_adds_one(self):
        unsigned = integer_bits_required(5.0, signed=False)
        assert integer_bits_required(5.0, signed=True) == unsigned + 1

    def test_negative_rejected(self):
        with pytest.raises(FixedPointError):
            integer_bits_required(-1.0, signed=False)


class TestSuggestFormat:
    def test_unit_range_unsigned(self):
        fmt = suggest_format(np.array([0.0, 0.5, 0.99]), word_length=16)
        assert fmt.signed is False
        assert fmt.int_length == 0
        assert fmt.word_length == 16

    def test_signed_inferred(self):
        fmt = suggest_format(np.array([-0.5, 0.5]), word_length=16)
        assert fmt.signed is True
        assert fmt.int_length == 1

    def test_headroom(self):
        base = suggest_format(np.array([0.0, 0.9]), word_length=16)
        padded = suggest_format(np.array([0.0, 0.9]), word_length=16, headroom_bits=3)
        assert padded.int_length == base.int_length + 3

    def test_unsigned_request_with_negatives_rejected(self):
        with pytest.raises(FixedPointError):
            suggest_format(np.array([-1.0, 1.0]), word_length=16, signed=False)

    def test_covers_observed_range(self):
        values = np.array([-3.7, 0.2, 11.9])
        fmt = suggest_format(values, word_length=24)
        assert fmt.representable(values.min())
        assert fmt.representable(values.max())


class TestQuantizationErrorStats:
    def test_exact_signal(self):
        fmt = FixedFormat(16, 2, quant=Quant.RND)
        stats = quantization_error_stats(np.array([0.5, 0.25, -0.125]), fmt)
        assert stats.max_abs_error == 0.0
        assert stats.snr_db == math.inf
        assert stats.saturated_fraction == 0.0

    def test_error_bounded_by_half_lsb(self):
        fmt = FixedFormat(12, 1, quant=Quant.RND, overflow=Overflow.SAT)
        rng = np.random.default_rng(7)
        values = rng.uniform(-0.9, 0.9, 512)
        stats = quantization_error_stats(values, fmt)
        assert stats.max_abs_error <= fmt.resolution / 2 + 1e-15

    def test_trn_error_bounded_by_one_lsb(self):
        fmt = FixedFormat(12, 1, quant=Quant.TRN, overflow=Overflow.SAT)
        rng = np.random.default_rng(8)
        values = rng.uniform(-0.9, 0.9, 512)
        stats = quantization_error_stats(values, fmt)
        assert stats.max_abs_error <= fmt.resolution + 1e-15
        assert stats.max_abs_error > fmt.resolution / 2  # truncation is worse

    def test_snr_improves_with_width(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(0.01, 0.99, 2048)
        snrs = []
        for width in (8, 12, 16):
            fmt = FixedFormat(width, 0, signed=False, quant=Quant.RND,
                              overflow=Overflow.SAT)
            snrs.append(quantization_error_stats(values, fmt).snr_db)
        assert snrs[0] < snrs[1] < snrs[2]
        # ~6 dB per bit.
        assert 15 < snrs[1] - snrs[0] < 33

    def test_saturation_reported(self):
        fmt = FixedFormat(8, 1, quant=Quant.RND, overflow=Overflow.SAT)
        values = np.array([0.0, 0.5, 5.0, -5.0])
        stats = quantization_error_stats(values, fmt)
        assert stats.saturated_fraction == pytest.approx(0.5)

    def test_empty_rejected(self):
        fmt = FixedFormat(8, 1)
        with pytest.raises(FixedPointError):
            quantization_error_stats(np.array([]), fmt)
