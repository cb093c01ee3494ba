"""The composed Zynq SoC: device + clocks + CPU + memories.

:class:`ZynqSoC` is the platform object the SDSoC flow builds against.
It fixes the clock domains, owns the CPU and memory models, and converts
between cycle counts of different domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlatformError
from repro.platform.clock import ClockDomain
from repro.platform.cpu import ArmCortexA9Model
from repro.platform.device import ZYNQ_7020, ZynqDevice
from repro.platform.memory import BramModel, DdrModel


def _default_cpu() -> ArmCortexA9Model:
    return ArmCortexA9Model()


@dataclass(frozen=True)
class ZynqSoC:
    """A Zynq-7000 platform instance.

    Defaults model the ZC702 board the paper's numbers are consistent
    with: Z-7020 device, 667 MHz PS, 100 MHz PL, DDR3 at 4.26 GB/s peak.
    """

    device: ZynqDevice = ZYNQ_7020
    cpu: ArmCortexA9Model = field(default_factory=_default_cpu)
    ps_clock: ClockDomain = ClockDomain("ps", 666.7)
    pl_clock: ClockDomain = ClockDomain("pl", 100.0)
    ddr: DdrModel = field(default_factory=DdrModel)
    bram: BramModel = field(default_factory=BramModel)

    def __post_init__(self) -> None:
        if self.pl_clock.freq_mhz > 250:
            raise PlatformError(
                f"PL clock {self.pl_clock.freq_mhz} MHz exceeds 7-series "
                "fabric timing for non-trivial designs"
            )
        if self.cpu.freq_mhz > self.device.max_cpu_mhz:
            raise PlatformError(
                f"CPU clock {self.cpu.freq_mhz} MHz exceeds the "
                f"{self.device.name} limit of {self.device.max_cpu_mhz} MHz"
            )
        if abs(self.cpu.freq_mhz - self.ps_clock.freq_mhz) > 1.0:
            raise PlatformError(
                "cpu.freq_mhz and ps_clock must agree "
                f"({self.cpu.freq_mhz} vs {self.ps_clock.freq_mhz})"
            )

    def pl_cycles_to_seconds(self, cycles: float) -> float:
        """Wall time of PL cycles."""
        return self.pl_clock.cycles_to_seconds(cycles)

    def ps_cycles_to_seconds(self, cycles: float) -> float:
        """Wall time of PS cycles."""
        return self.ps_clock.cycles_to_seconds(cycles)

    def with_pl_clock(self, freq_mhz: float) -> "ZynqSoC":
        """A copy of the SoC at a different PL clock (DSE sweeps)."""
        return ZynqSoC(
            device=self.device,
            cpu=self.cpu,
            ps_clock=self.ps_clock,
            pl_clock=ClockDomain("pl", freq_mhz),
            ddr=self.ddr,
            bram=self.bram,
        )
