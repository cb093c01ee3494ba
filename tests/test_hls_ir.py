"""Tests for repro.hls.ir (kernel IR)."""

import pytest

from repro.errors import HlsError
from repro.hls import (
    AccessKind,
    ArrayDecl,
    CarriedDependence,
    Kernel,
    KernelArg,
    Loop,
    MemAccess,
    OpKind,
    Statement,
    Storage,
)


def simple_kernel():
    return Kernel(
        name="k",
        args=[KernelArg("a", AccessKind.READ, 64, 32)],
        arrays=[ArrayDecl("buf", 64, 32)],
        loops=[
            Loop(
                "outer",
                trip_count=8,
                statements=[
                    Statement(
                        "s",
                        chain=(OpKind.LOAD, OpKind.ADD),
                        accesses=(MemAccess("buf", AccessKind.READ),),
                    )
                ],
                subloops=[Loop("inner", trip_count=4)],
            )
        ],
    )


class TestArrayDecl:
    def test_total_bits(self):
        assert ArrayDecl("a", 128, 16).total_bits == 2048

    def test_bram_ports(self):
        assert ArrayDecl("a", 64, 32).ports_per_cycle == 2

    def test_partitioned_ports_multiply(self):
        assert ArrayDecl("a", 64, 32, partition_factor=4).ports_per_cycle == 8

    def test_registers_unlimited(self):
        decl = ArrayDecl("a", 8, 32, storage=Storage.REGISTERS)
        assert decl.ports_per_cycle == float("inf")

    def test_stream_single_port(self):
        assert ArrayDecl("a", 64, 32, storage=Storage.STREAM).ports_per_cycle == 1

    def test_word_packing_doubles_16bit_ports(self):
        # The paper's FxP gain: two 16-bit pixels per 32-bit BRAM word.
        packed = ArrayDecl("a", 64, 16, word_packed=True)
        assert packed.packing_factor == 2
        assert packed.ports_per_cycle == 4

    def test_word_packing_noop_for_32bit(self):
        assert ArrayDecl("a", 64, 32, word_packed=True).packing_factor == 1

    def test_word_packing_ignored_for_registers(self):
        decl = ArrayDecl("a", 8, 16, storage=Storage.REGISTERS, word_packed=True)
        assert decl.packing_factor == 1

    def test_invalid_depth(self):
        with pytest.raises(HlsError):
            ArrayDecl("a", 0, 32)

    def test_invalid_partition(self):
        with pytest.raises(HlsError):
            ArrayDecl("a", 8, 32, partition_factor=0)


class TestStatement:
    def test_chain_implies_ops(self):
        stmt = Statement("s", chain=(OpKind.LOAD, OpKind.FMUL, OpKind.FADD))
        assert stmt.ops == {OpKind.LOAD: 1, OpKind.FMUL: 1, OpKind.FADD: 1}

    def test_explicit_ops_kept(self):
        stmt = Statement(
            "s", chain=(OpKind.FADD,), ops={OpKind.FADD: 3, OpKind.LOAD: 2}
        )
        assert stmt.ops[OpKind.FADD] == 3

    def test_scaled(self):
        stmt = Statement(
            "s",
            chain=(OpKind.FADD,),
            ops={OpKind.FADD: 2},
            accesses=(MemAccess("buf", AccessKind.READ, count=3),),
        )
        scaled = stmt.scaled(4)
        assert scaled.ops[OpKind.FADD] == 8
        assert scaled.accesses[0].count == 12
        # Original untouched; factor 1 returns self.
        assert stmt.ops[OpKind.FADD] == 2
        assert stmt.scaled(1) is stmt

    def test_negative_count_rejected(self):
        with pytest.raises(HlsError):
            Statement("s", ops={OpKind.ADD: -1})

    def test_carried_dependence_validation(self):
        with pytest.raises(HlsError):
            CarriedDependence(0, (OpKind.FADD,))
        with pytest.raises(HlsError):
            CarriedDependence(1, ())


class TestLoop:
    def test_walk_order(self):
        kernel = simple_kernel()
        names = [l.name for l in kernel.loops[0].walk()]
        assert names == ["outer", "inner"]

    def test_find(self):
        kernel = simple_kernel()
        assert kernel.find_loop("inner").trip_count == 4
        with pytest.raises(HlsError):
            kernel.find_loop("nope")

    def test_copy_is_deep(self):
        kernel = simple_kernel()
        clone = kernel.copy()
        clone.find_loop("outer").pipeline = True
        assert kernel.find_loop("outer").pipeline is False

    def test_invalid_trip_count(self):
        with pytest.raises(HlsError):
            Loop("l", trip_count=0)


class TestKernel:
    def test_unknown_array_access_rejected(self):
        with pytest.raises(HlsError, match="unknown array"):
            Kernel(
                name="bad",
                args=[],
                arrays=[],
                loops=[
                    Loop(
                        "l",
                        trip_count=2,
                        statements=[
                            Statement(
                                "s",
                                accesses=(MemAccess("ghost", AccessKind.READ),),
                            )
                        ],
                    )
                ],
            )

    def test_duplicate_array_names_rejected(self):
        with pytest.raises(HlsError, match="duplicate"):
            Kernel(
                name="bad",
                args=[],
                arrays=[ArrayDecl("a", 4, 8), ArrayDecl("a", 8, 8)],
                loops=[Loop("l", trip_count=1)],
            )

    def test_no_loops_rejected(self):
        with pytest.raises(HlsError):
            Kernel(name="bad", args=[], arrays=[], loops=[])

    def test_array_lookup(self):
        kernel = simple_kernel()
        assert kernel.array("buf").depth == 64
        with pytest.raises(HlsError):
            kernel.array("nope")

    def test_replace_array(self):
        from dataclasses import replace

        kernel = simple_kernel()
        kernel.replace_array(replace(kernel.array("buf"), partition_factor=4))
        assert kernel.array("buf").partition_factor == 4


class TestKernelArg:
    def test_bytes(self):
        assert KernelArg("a", AccessKind.READ, 100, 32).bytes == 400
        assert KernelArg("a", AccessKind.READ, 100, 16).bytes == 200
        # Non-byte-aligned widths round up.
        assert KernelArg("a", AccessKind.READ, 10, 12).bytes == 20

    def test_validation(self):
        with pytest.raises(HlsError):
            KernelArg("a", AccessKind.READ, 0, 32)
