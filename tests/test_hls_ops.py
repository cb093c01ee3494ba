"""Tests for repro.hls.ops (operator library)."""

import pytest

from repro.errors import HlsError
from repro.hls import DEFAULT_LIBRARY, OpKind, OpSpec, OperatorLibrary


class TestOpSpec:
    def test_valid(self):
        spec = OpSpec(latency=3, lut=10, ff=20, dsp=1)
        assert spec.latency == 3
        assert spec.operator_ii == 1

    def test_negative_latency_rejected(self):
        with pytest.raises(HlsError):
            OpSpec(latency=-1)

    def test_zero_operator_ii_rejected(self):
        with pytest.raises(HlsError):
            OpSpec(latency=1, operator_ii=0)

    def test_negative_resources_rejected(self):
        with pytest.raises(HlsError):
            OpSpec(latency=1, lut=-5)


class TestDefaultLibrary:
    def test_all_kinds_present(self):
        for kind in OpKind:
            assert DEFAULT_LIBRARY[kind].latency >= 0

    def test_float_add_slower_than_fixed_add(self):
        # The asymmetry behind the paper's FxP conversion.
        assert DEFAULT_LIBRARY.latency(OpKind.FADD) > DEFAULT_LIBRARY.latency(
            OpKind.ADD
        )

    def test_float_mul_uses_more_dsp_than_fixed(self):
        assert DEFAULT_LIBRARY[OpKind.FMUL].dsp > DEFAULT_LIBRARY[OpKind.MUL].dsp

    def test_divider_is_iterative(self):
        assert DEFAULT_LIBRARY[OpKind.DIV].operator_ii > 1

    def test_chain_latency(self):
        chain = (OpKind.LOAD, OpKind.FMUL, OpKind.FADD)
        expected = (
            DEFAULT_LIBRARY.latency(OpKind.LOAD)
            + DEFAULT_LIBRARY.latency(OpKind.FMUL)
            + DEFAULT_LIBRARY.latency(OpKind.FADD)
        )
        assert DEFAULT_LIBRARY.chain_latency(chain) == expected

    def test_empty_chain_latency_zero(self):
        assert DEFAULT_LIBRARY.chain_latency(()) == 0


class TestOperatorLibrary:
    def test_missing_spec_rejected(self):
        with pytest.raises(HlsError, match="missing"):
            OperatorLibrary({OpKind.FADD: OpSpec(latency=4)})
