"""A simulated PMBus power monitor (the TI Fusion stand-in).

"Core and auxiliary voltages are provided to the Zynq SoC by Texas
Instruments power controllers.  These devices feature a Power Management
Bus (PMBus) ... By using the TI Fusion Digital Power Designer GUI, it is
then possible to monitor the power consumption of the system" (paper
section IV-C).

:class:`PmBusMonitor` samples a :class:`~repro.power.model.PowerTimeline`
at a fixed interval with optional measurement noise, exactly as the
external USB-to-GPIO monitoring chain does, and reports average power and
integrated energy per rail.  The experiments obtain their energy numbers
*through this monitor*, so the measurement path of the paper — average
power times execution time — is reproduced rather than shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.errors import PowerError
from repro.power.model import PowerTimeline
from repro.power.rails import Rail


@dataclass(frozen=True)
class PowerTrace:
    """Sampled power of one rail."""

    rail: Rail
    times_s: np.ndarray
    watts: np.ndarray

    def __post_init__(self) -> None:
        if self.times_s.shape != self.watts.shape:
            raise PowerError("times and watts must have equal length")
        if self.times_s.size == 0:
            raise PowerError("empty power trace")

    @property
    def average_w(self) -> float:
        """Mean sampled power (what the Fusion GUI displays)."""
        return float(self.watts.mean())

    def energy_j(self, duration_s: float) -> float:
        """Average power times execution time — the paper's method."""
        if duration_s < 0:
            raise PowerError("duration must be >= 0")
        return self.average_w * duration_s


@dataclass
class PmBusMonitor:
    """Fixed-interval sampling monitor with optional Gaussian noise.

    Parameters
    ----------
    sample_interval_s:
        PMBus polling period (the TI chain samples on the order of
        milliseconds).
    noise_rms_w:
        RMS of additive measurement noise per sample.
    seed:
        RNG seed for reproducible noise.
    """

    sample_interval_s: float = 1e-3
    noise_rms_w: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_interval_s <= 0:
            raise PowerError("sample_interval_s must be positive")
        if self.noise_rms_w < 0:
            raise PowerError("noise_rms_w must be >= 0")

    def measure(self, timeline: PowerTimeline) -> Dict[Rail, PowerTrace]:
        """Sample every rail over the full run."""
        duration = timeline.total_duration
        if duration <= 0:
            raise PowerError("timeline has zero duration")
        # Sample at interval midpoints for unbiased averages of piecewise-
        # constant signals.
        count = max(1, int(round(duration / self.sample_interval_s)))
        times = (np.arange(count) + 0.5) * (duration / count)
        rng = np.random.default_rng(self.seed)

        traces: Dict[Rail, PowerTrace] = {}
        per_rail: Dict[Rail, List[float]] = {rail: [] for rail in Rail}
        for t in times:
            powers = timeline.power_at(float(t))
            for rail in Rail:
                per_rail[rail].append(powers[rail])
        for rail in Rail:
            watts = np.asarray(per_rail[rail], dtype=np.float64)
            if self.noise_rms_w:
                watts = np.clip(
                    watts + rng.normal(0.0, self.noise_rms_w, watts.shape), 0.0, None
                )
            traces[rail] = PowerTrace(rail=rail, times_s=times.copy(), watts=watts)
        return traces

    def measure_energy(self, timeline: PowerTimeline) -> Dict[Rail, float]:
        """Per-rail energy via average power x duration (paper method)."""
        duration = timeline.total_duration
        return {
            rail: trace.energy_j(duration)
            for rail, trace in self.measure(timeline).items()
        }
