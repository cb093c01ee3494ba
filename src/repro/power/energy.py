"""Energy accounting: the bottomline / execution-overhead decomposition.

"The measured energy can be divided in two contributions, namely the
bottomline and the execution overhead.  The first term refers to the
energy consumed by the system when it is in idle state waiting for the
application to be executed, while the second represents the additional
energy required to perform the computations" (paper section IV-C).

:func:`compute_energy` integrates a :class:`~repro.power.model.PowerModel`
over an execution timeline and reports, per rail, exactly those two terms
— the data behind Figs. 7 and 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.errors import PowerError
from repro.power.model import ExecutionPhase, PowerModel
from repro.power.rails import Rail


@dataclass(frozen=True)
class RailEnergy:
    """Energy of one rail over a run, split as the paper splits it."""

    rail: Rail
    bottomline_j: float
    overhead_j: float

    def __post_init__(self) -> None:
        if self.bottomline_j < 0 or self.overhead_j < 0:
            raise PowerError(f"rail {self.rail.value}: energies must be >= 0")

    @property
    def total_j(self) -> float:
        return self.bottomline_j + self.overhead_j


@dataclass(frozen=True)
class EnergyReport:
    """Per-rail energy for one implementation run."""

    implementation: str
    duration_s: float
    rails: Dict[Rail, RailEnergy]

    @property
    def total_j(self) -> float:
        """Total energy per processed image (the paper's Fig. 7 height)."""
        return sum(r.total_j for r in self.rails.values())

    @property
    def bottomline_j(self) -> float:
        return sum(r.bottomline_j for r in self.rails.values())

    @property
    def overhead_j(self) -> float:
        return sum(r.overhead_j for r in self.rails.values())

    def rail(self, rail: Rail) -> RailEnergy:
        return self.rails[rail]


def compute_energy(
    implementation: str,
    phases: Sequence[ExecutionPhase],
    pl_utilization: float,
    model: PowerModel = PowerModel(),
) -> EnergyReport:
    """Integrate *model* over *phases*, splitting bottomline vs overhead.

    The bottomline term is the idle power level (which for the PL depends
    on how much logic the implementation configures) integrated over the
    whole run; the overhead term integrates the activity-dependent extra
    power only over the phases where the subsystem is active.
    """
    if not phases:
        raise PowerError("timeline needs at least one phase")
    duration = sum(p.duration_s for p in phases)
    idle = model.idle_powers(pl_utilization)

    bottomline = {rail: idle[rail] * duration for rail in Rail}
    overhead = {rail: 0.0 for rail in Rail}
    for phase in phases:
        extra = model.active_overhead(
            phase.ps_active, phase.pl_active, pl_utilization
        )
        for rail in Rail:
            overhead[rail] += extra[rail] * phase.duration_s

    rails = {
        rail: RailEnergy(
            rail=rail,
            bottomline_j=bottomline[rail],
            overhead_j=overhead[rail],
        )
        for rail in Rail
    }
    return EnergyReport(
        implementation=implementation, duration_s=duration, rails=rails
    )
