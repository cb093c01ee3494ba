"""Power rails of the Zynq platform.

"Among the ten different power rails available, the focus has been put on
those powering up the main components, i.e. the programmable logic (PL),
the processing system (PS) and the memories (DDR and BRAM)" (paper
section IV-C).  The same four rails structure every energy result here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import PowerError


class Rail(enum.Enum):
    """The four monitored rails."""

    PS = "PS"
    PL = "PL"
    DDR = "DDR"
    BRAM = "BRAM"


@dataclass(frozen=True)
class RailPowers:
    """An instantaneous power reading (or level) per rail, in watts."""

    watts: Mapping[Rail, float]

    def __post_init__(self) -> None:
        missing = set(Rail) - set(self.watts)
        if missing:
            raise PowerError(
                f"missing rails: {sorted(r.value for r in missing)}"
            )
        for rail, value in self.watts.items():
            if value < 0:
                raise PowerError(f"rail {rail.value}: power must be >= 0")
        object.__setattr__(self, "watts", dict(self.watts))

    def __getitem__(self, rail: Rail) -> float:
        return self.watts[rail]

    def __iter__(self) -> Iterator[Rail]:
        return iter(Rail)

    @property
    def total(self) -> float:
        """Total platform power in watts."""
        return sum(self.watts.values())

    def scaled(self, factor: float) -> "RailPowers":
        if factor < 0:
            raise PowerError("scale factor must be >= 0")
        return RailPowers({r: w * factor for r, w in self.watts.items()})

    def plus(self, other: "RailPowers") -> "RailPowers":
        return RailPowers(
            {r: self.watts[r] + other.watts[r] for r in Rail}
        )

    @classmethod
    def uniform(cls, watts: float) -> "RailPowers":
        return cls({r: watts for r in Rail})

    @classmethod
    def of(cls, ps: float = 0.0, pl: float = 0.0, ddr: float = 0.0,
           bram: float = 0.0) -> "RailPowers":
        """Convenience constructor with per-rail keywords."""
        return cls({Rail.PS: ps, Rail.PL: pl, Rail.DDR: ddr, Rail.BRAM: bram})
