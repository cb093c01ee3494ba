"""Clock domains of the Zynq SoC.

The PS (ARM) and PL (fabric) run in different clock domains; converting
an accelerator's cycle count to wall time requires the right one.  SDSoC
offers a small set of PL clocks (typically 100/142/166/200 MHz on
7-series); the paper's accelerator uses the default 100 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlatformError


@dataclass(frozen=True)
class ClockDomain:
    """A named clock: frequency plus conversion helpers."""

    name: str
    freq_mhz: float

    def __post_init__(self) -> None:
        if self.freq_mhz <= 0:
            raise PlatformError(
                f"clock {self.name!r}: frequency must be positive, "
                f"got {self.freq_mhz}"
            )

    @property
    def freq_hz(self) -> float:
        return self.freq_mhz * 1e6

    @property
    def period_ns(self) -> float:
        return 1e9 / self.freq_hz

    def cycles_to_seconds(self, cycles: float) -> float:
        """Wall time of *cycles* clock cycles."""
        if cycles < 0:
            raise PlatformError(f"cycles must be non-negative, got {cycles}")
        return cycles / self.freq_hz

    def seconds_to_cycles(self, seconds: float) -> int:
        """Whole cycles elapsed in *seconds* (rounded up)."""
        if seconds < 0:
            raise PlatformError(f"seconds must be non-negative, got {seconds}")
        return int(-(-seconds * self.freq_hz // 1))


#: Conventional Zynq clock domains.
PS_CLOCK = ClockDomain("ps", 666.7)
PL_CLOCK_100 = ClockDomain("pl100", 100.0)
PL_CLOCK_142 = ClockDomain("pl142", 142.9)
PL_CLOCK_200 = ClockDomain("pl200", 200.0)
DDR_CLOCK = ClockDomain("ddr", 533.3)
