"""Off-chip DDR and on-chip block-RAM models.

The restructuring argument of paper Fig. 4 — stream from off-chip RAM
into a BRAM line buffer, compute, stream back — needs both memories
characterized: DDR delivers high bandwidth only for bursts and charges a
large per-transaction latency otherwise; BRAM delivers a fixed two ports
per bank per cycle with single-cycle latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlatformError


@dataclass(frozen=True)
class DdrModel:
    """DDR3 interface model (Zynq PS memory controller).

    Parameters
    ----------
    peak_bandwidth_bytes_per_s:
        Theoretical interface bandwidth (DDR3-1066 x32: ~4.3 GB/s).
    burst_efficiency:
        Fraction of peak achievable with long bursts through an HP port.
    transaction_latency_s:
        Round-trip latency of one isolated (single-beat) transaction,
        controller + interconnect included.
    """

    peak_bandwidth_bytes_per_s: float = 4.26e9
    burst_efficiency: float = 0.8
    transaction_latency_s: float = 1.5e-7

    def __post_init__(self) -> None:
        if self.peak_bandwidth_bytes_per_s <= 0:
            raise PlatformError("peak bandwidth must be positive")
        if not 0 < self.burst_efficiency <= 1:
            raise PlatformError("burst_efficiency must be in (0, 1]")
        if self.transaction_latency_s < 0:
            raise PlatformError("transaction latency must be non-negative")

    @property
    def effective_bandwidth(self) -> float:
        """Sustained burst bandwidth in bytes/s."""
        return self.peak_bandwidth_bytes_per_s * self.burst_efficiency

    def burst_transfer_seconds(self, num_bytes: int) -> float:
        """Time to move *num_bytes* as one long burst stream."""
        if num_bytes < 0:
            raise PlatformError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.transaction_latency_s + num_bytes / self.effective_bandwidth

    def single_beat_seconds(self, beats: int) -> float:
        """Time for *beats* isolated transactions (each pays full latency)."""
        if beats < 0:
            raise PlatformError("beats must be non-negative")
        return beats * self.transaction_latency_s


@dataclass(frozen=True)
class BramModel:
    """On-chip block-RAM characteristics.

    A line buffer sized by :meth:`lines_fit` tells the accelerator
    designer how many image rows fit on chip — the feasibility condition
    for the paper's restructured data flow.
    """

    total_bram18: int = 280           # Z-7020
    bits_per_bram18: int = 18 * 1024
    ports_per_bank: int = 2
    access_latency_cycles: int = 1

    def __post_init__(self) -> None:
        if self.total_bram18 < 1:
            raise PlatformError("total_bram18 must be >= 1")
        if self.ports_per_bank < 1:
            raise PlatformError("ports_per_bank must be >= 1")

    def brams_for(self, depth: int, width_bits: int) -> int:
        """BRAM18 primitives needed for a ``depth x width`` memory."""
        if depth < 1 or width_bits < 1:
            raise PlatformError("depth and width_bits must be >= 1")
        return max(1, -(-(depth * width_bits) // self.bits_per_bram18))

    def lines_fit(self, line_elements: int, element_bits: int,
                  reserve_fraction: float = 0.25) -> int:
        """How many image lines fit, keeping a fraction in reserve.

        The reserve models the BRAM the rest of the design (FIFOs,
        coefficient ROMs, scheduler-inserted buffers) needs.
        """
        if not 0 <= reserve_fraction < 1:
            raise PlatformError("reserve_fraction must be in [0, 1)")
        usable_bits = self.total_bram18 * self.bits_per_bram18
        usable_bits = int(usable_bits * (1.0 - reserve_fraction))
        line_bits = line_elements * element_bits
        return usable_bits // line_bits if line_bits else 0
