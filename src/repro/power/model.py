"""The per-rail power model and execution timelines.

Each rail's power is ``idle + activity-dependent overhead``:

* **PS** — a fixed idle level (clocks, OCM, peripherals) plus a dynamic
  term while the ARM core is executing the application.
* **PL** — a static base (even an unconfigured fabric leaks and clocks),
  plus a *utilization-dependent* static term (configured logic leaks and
  its clock tree toggles even while idle — the mechanism behind the
  paper's growing PL "bottomline", Fig. 8b), plus a dynamic term while
  the accelerator is actually processing.
* **DDR / BRAM** — constant: the paper notes their consumption "does not
  vary when moving from idle to execution".

An :class:`ExecutionPhase` timeline states, per phase, whether the PS and
PL are active; :meth:`PowerModel.timeline_powers` turns that into the
piecewise-constant rail powers that the PMBus monitor samples and the
energy decomposition integrates.

The default wattages are calibrated so the software-only implementation
averages ~1.1 W (the paper's 30 J / 26.66 s) with the split across rails
matching Figs. 7-8; each constant is annotated with its role.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import PowerError
from repro.power.rails import Rail, RailPowers


@dataclass(frozen=True)
class ExecutionPhase:
    """One piece of an implementation's execution timeline."""

    name: str
    duration_s: float
    ps_active: bool
    pl_active: bool

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise PowerError(f"phase {self.name!r}: duration must be >= 0")


@dataclass(frozen=True)
class PowerModel:
    """Calibrated rail-power parameters (watts)."""

    #: PS idle: ARM clocks, SCU, OCM, peripherals (bottomline term).
    ps_idle_w: float = 0.30
    #: Additional PS power while the ARM executes the application.
    ps_active_w: float = 0.33
    #: PL static floor: unconfigured/blank fabric.
    pl_base_w: float = 0.045
    #: Additional PL static power at 100% resource utilization (leakage +
    #: clock tree of configured logic; scales linearly with utilization).
    pl_util_idle_w: float = 0.35
    #: Additional PL dynamic power at 100% utilization while processing.
    pl_util_active_w: float = 1.20
    #: DDR rail: constant (self-refresh + controller; paper: does not
    #: vary between idle and execution).
    ddr_w: float = 0.40
    #: BRAM rail: constant.
    bram_w: float = 0.05

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise PowerError(f"power parameter {name} must be >= 0")

    # ------------------------------------------------------------------
    # Instantaneous powers
    # ------------------------------------------------------------------
    def idle_powers(self, pl_utilization: float) -> RailPowers:
        """Bottomline power levels for a given configured-PL utilization."""
        _check_utilization(pl_utilization)
        return RailPowers.of(
            ps=self.ps_idle_w,
            pl=self.pl_base_w + self.pl_util_idle_w * pl_utilization,
            ddr=self.ddr_w,
            bram=self.bram_w,
        )

    def active_overhead(
        self, ps_active: bool, pl_active: bool, pl_utilization: float
    ) -> RailPowers:
        """Execution-overhead power above the bottomline."""
        _check_utilization(pl_utilization)
        return RailPowers.of(
            ps=self.ps_active_w if ps_active else 0.0,
            pl=self.pl_util_active_w * pl_utilization if pl_active else 0.0,
            ddr=0.0,
            bram=0.0,
        )

    def phase_powers(
        self, phase: ExecutionPhase, pl_utilization: float
    ) -> RailPowers:
        """Total rail powers during one phase."""
        return self.idle_powers(pl_utilization).plus(
            self.active_overhead(phase.ps_active, phase.pl_active, pl_utilization)
        )

    def timeline_powers(
        self, phases: Sequence[ExecutionPhase], pl_utilization: float
    ) -> "PowerTimeline":
        """The piecewise-constant power profile of a full run."""
        if not phases:
            raise PowerError("timeline needs at least one phase")
        segments = [
            (phase, self.phase_powers(phase, pl_utilization)) for phase in phases
        ]
        return PowerTimeline(segments=segments, pl_utilization=pl_utilization)


@dataclass(frozen=True)
class PowerTimeline:
    """Piecewise-constant rail powers over a run."""

    segments: List[Tuple[ExecutionPhase, RailPowers]]
    pl_utilization: float

    @property
    def total_duration(self) -> float:
        return sum(phase.duration_s for phase, _ in self.segments)

    def power_at(self, t: float) -> RailPowers:
        """Rail powers at time *t* (seconds from run start)."""
        if t < 0:
            raise PowerError(f"t must be >= 0, got {t}")
        elapsed = 0.0
        for phase, powers in self.segments:
            elapsed += phase.duration_s
            if t < elapsed:
                return powers
        # After the run: platform sits at the last phase's idle level.
        if not self.segments:
            raise PowerError("empty timeline")
        return self.segments[-1][1]

    def energy_joules(self) -> RailPowers:
        """Exact per-rail energy (power x duration summed over phases)."""
        totals = {rail: 0.0 for rail in Rail}
        for phase, powers in self.segments:
            for rail in Rail:
                totals[rail] += powers[rail] * phase.duration_s
        return RailPowers(totals)


def _check_utilization(value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise PowerError(f"pl_utilization must be in [0, 1], got {value}")
