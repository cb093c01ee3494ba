"""Resource (area) estimation for synthesized kernels.

Estimates LUT / FF / DSP / BRAM usage from the scheduled design: operator
instances (which scale with unrolling and shrink with larger II) plus
array storage (BRAM banks, or flip-flops for fully partitioned arrays).

Used for two paper-relevant purposes: checking a design fits the Zynq
device, and driving the PL "bottomline" power term, which the paper shows
growing as optimization steps enable more logic (Fig. 8b).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HlsError
from repro.hls.ir import Kernel, Storage
from repro.hls.ops import DEFAULT_LIBRARY, OperatorLibrary
from repro.hls.scheduler import ScheduleResult

#: Usable bits of one BRAM18 primitive (18 Kbit block).
BRAM18_BITS = 18 * 1024

#: Fixed control/interface overhead of a synthesized accelerator.
BASE_LUT = 1200
BASE_FF = 1500

#: Per-loop control logic (counters, FSM states).
LOOP_LUT = 60
LOOP_FF = 40


@dataclass(frozen=True)
class ResourceUsage:
    """LUT / FF / DSP / BRAM18 counts."""

    lut: int = 0
    ff: int = 0
    dsp: int = 0
    bram18: int = 0

    def __post_init__(self) -> None:
        if min(self.lut, self.ff, self.dsp, self.bram18) < 0:
            raise HlsError("resource counts must be non-negative")

    def __add__(self, other: "ResourceUsage") -> "ResourceUsage":
        return ResourceUsage(
            lut=self.lut + other.lut,
            ff=self.ff + other.ff,
            dsp=self.dsp + other.dsp,
            bram18=self.bram18 + other.bram18,
        )

    def fits(self, limits: "ResourceUsage") -> bool:
        """Whether this usage fits within *limits* on every resource."""
        return (
            self.lut <= limits.lut
            and self.ff <= limits.ff
            and self.dsp <= limits.dsp
            and self.bram18 <= limits.bram18
        )

    def utilization(self, limits: "ResourceUsage") -> dict:
        """Fractional utilization per resource (0..inf)."""

        def frac(used: int, avail: int) -> float:
            return used / avail if avail else float("inf")

        return {
            "LUT": frac(self.lut, limits.lut),
            "FF": frac(self.ff, limits.ff),
            "DSP": frac(self.dsp, limits.dsp),
            "BRAM18": frac(self.bram18, limits.bram18),
        }


def _array_resources(kernel: Kernel) -> ResourceUsage:
    lut = ff = bram = 0
    for arr in kernel.arrays:
        if arr.storage is Storage.BRAM:
            bank_depth = -(-arr.depth // arr.partition_factor)
            bank_bits = bank_depth * arr.width_bits
            per_bank = max(1, -(-bank_bits // BRAM18_BITS))
            bram += per_bank * arr.partition_factor
        elif arr.storage is Storage.REGISTERS:
            ff += arr.total_bits
            lut += arr.depth * 2  # mux trees for register-file access
        # EXTERNAL and STREAM arrays use no fabric storage here; streams
        # cost a small FIFO.
        elif arr.storage is Storage.STREAM:
            bram += 1
    return ResourceUsage(lut=lut, ff=ff, dsp=0, bram18=bram)


def _operator_resources(
    schedule: ScheduleResult, library: OperatorLibrary
) -> ResourceUsage:
    lut = ff = dsp = 0
    loop_count = 0
    for loop_sched in schedule.loop_table():
        loop_count += 1
        for kind, instances in loop_sched.op_instances.items():
            spec = library[kind]
            lut += spec.lut * instances
            ff += spec.ff * instances
            dsp += spec.dsp * instances
    lut += LOOP_LUT * loop_count
    ff += LOOP_FF * loop_count
    return ResourceUsage(lut=lut, ff=ff, dsp=dsp, bram18=0)


def estimate_resources(
    kernel: Kernel,
    schedule: ScheduleResult,
    library: OperatorLibrary = DEFAULT_LIBRARY,
) -> ResourceUsage:
    """Estimate the area of a scheduled kernel."""
    base = ResourceUsage(lut=BASE_LUT, ff=BASE_FF)
    return base + _array_resources(kernel) + _operator_resources(schedule, library)
