"""The HLS operator library: latency and area of each operation kind.

Latencies model Xilinx 7-series operator cores at the ~100 MHz clock the
paper's programmable logic runs at: floating-point operators are deeply
pipelined multi-cycle cores (an ``fadd`` takes several cycles, which is
why a float accumulation loop cannot reach II=1), while fixed-point
(integer) operators complete in one or two cycles.  This asymmetry *is*
the paper's section III-C argument for fixed-point conversion, so it is
the heart of this library.

Resource costs are per operator instance; loop unrolling replicates
instances, which is how ``ARRAY_PARTITION`` + unrolling trades area for
II in the scheduler.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Mapping

from repro.errors import HlsError


class OpKind(enum.Enum):
    """Operation kinds recognized by the scheduler."""

    # Floating point (32-bit, Xilinx floating-point operator cores).
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FCMP = "fcmp"
    FTOI = "ftoi"
    ITOF = "itof"
    FEXP = "fexp"
    FLOG = "flog"

    # Fixed point / integer.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    CMP = "cmp"
    SHIFT = "shift"
    LOGIC = "logic"

    # Memory.
    LOAD = "load"
    STORE = "store"


@dataclass(frozen=True)
class OpSpec:
    """Latency and per-instance resource cost of one operation kind.

    Parameters
    ----------
    latency:
        Cycles from operand issue to result (pipeline depth of the
        operator core).
    operator_ii:
        Cycles between successive issues to one instance (1 for fully
        pipelined cores, higher for iterative ones such as dividers).
    lut, ff, dsp:
        Resource cost of one operator instance.
    """

    latency: int
    operator_ii: int = 1
    lut: int = 0
    ff: int = 0
    dsp: int = 0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise HlsError(f"latency must be >= 0, got {self.latency}")
        if self.operator_ii < 1:
            raise HlsError(f"operator_ii must be >= 1, got {self.operator_ii}")
        if min(self.lut, self.ff, self.dsp) < 0:
            raise HlsError("resource costs must be non-negative")


class OperatorLibrary:
    """Maps :class:`OpKind` to :class:`OpSpec`, with override support."""

    def __init__(self, specs: Mapping[OpKind, OpSpec]):
        missing = set(OpKind) - set(specs)
        if missing:
            raise HlsError(f"operator library missing specs for {sorted(m.value for m in missing)}")
        self._specs: Dict[OpKind, OpSpec] = dict(specs)

    def __getitem__(self, kind: OpKind) -> OpSpec:
        return self._specs[kind]

    def latency(self, kind: OpKind) -> int:
        return self._specs[kind].latency

    def chain_latency(self, chain) -> int:
        """Total latency of a dependence chain of operations."""
        return sum(self._specs[kind].latency for kind in chain)


#: Default library: Xilinx 7-series operator characteristics at ~100 MHz.
#: Floating-point figures follow the Floating-Point Operator core
#: (medium-latency configuration); fixed-point figures are the fabric/DSP
#: implementations Vivado HLS infers for <= 32-bit operands.
DEFAULT_LIBRARY = OperatorLibrary(
    {
        OpKind.FADD: OpSpec(latency=4, lut=390, ff=500, dsp=2),
        OpKind.FSUB: OpSpec(latency=4, lut=390, ff=500, dsp=2),
        OpKind.FMUL: OpSpec(latency=3, lut=150, ff=250, dsp=3),
        OpKind.FDIV: OpSpec(latency=16, operator_ii=1, lut=800, ff=1400, dsp=0),
        OpKind.FCMP: OpSpec(latency=1, lut=100, ff=80, dsp=0),
        OpKind.FTOI: OpSpec(latency=2, lut=200, ff=250, dsp=0),
        OpKind.ITOF: OpSpec(latency=2, lut=200, ff=250, dsp=0),
        OpKind.FEXP: OpSpec(latency=10, lut=900, ff=1100, dsp=7),
        OpKind.FLOG: OpSpec(latency=12, lut=1000, ff=1200, dsp=5),
        OpKind.ADD: OpSpec(latency=1, lut=16, ff=16, dsp=0),
        OpKind.SUB: OpSpec(latency=1, lut=16, ff=16, dsp=0),
        OpKind.MUL: OpSpec(latency=2, lut=30, ff=60, dsp=1),
        OpKind.DIV: OpSpec(latency=18, operator_ii=18, lut=600, ff=700, dsp=0),
        OpKind.CMP: OpSpec(latency=1, lut=10, ff=8, dsp=0),
        OpKind.SHIFT: OpSpec(latency=1, lut=20, ff=16, dsp=0),
        OpKind.LOGIC: OpSpec(latency=1, lut=8, ff=8, dsp=0),
        OpKind.LOAD: OpSpec(latency=2, lut=4, ff=4, dsp=0),
        OpKind.STORE: OpSpec(latency=1, lut=4, ff=4, dsp=0),
    }
)
