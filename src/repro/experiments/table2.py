"""Table II: tone-mapping execution times for the five implementations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.calibration import PAPER_TABLE2, make_paper_flow
from repro.sdsoc.flow import ImplementationResult, OptimizationFlow


@dataclass(frozen=True)
class Table2Row:
    """One implementation's row: measured model times vs the paper's."""

    key: str
    title: str
    blur_seconds: float
    total_seconds: float
    paper_blur_seconds: float
    paper_total_seconds: float
    result: ImplementationResult


@dataclass(frozen=True)
class Table2:
    """The reproduced table with derived headline metrics."""

    rows: List[Table2Row]

    def row(self, key: str) -> Table2Row:
        for row in self.rows:
            if row.key == key:
                return row
        raise KeyError(key)

    @property
    def blur_speedup(self) -> float:
        """SW blur time over final FxP blur time (paper: >17x)."""
        return self.row("sw").blur_seconds / self.row("fxp").blur_seconds

    @property
    def naive_slowdown(self) -> float:
        """Marked-HW blur over SW blur (paper: ~24x slower)."""
        return self.row("marked_hw").blur_seconds / self.row("sw").blur_seconds

    def render(self) -> str:
        lines = [
            "TABLE II: Tone mapping execution times (model vs paper)",
            f"  {'implementation':28s} {'blur(s)':>9s} {'paper':>8s} "
            f"{'total(s)':>9s} {'paper':>8s}",
        ]
        for row in self.rows:
            lines.append(
                f"  {row.title:28s} {row.blur_seconds:9.3f} "
                f"{row.paper_blur_seconds:8.2f} {row.total_seconds:9.3f} "
                f"{row.paper_total_seconds:8.2f}"
            )
        lines.append(
            f"  blur speed-up SW->FxP: {self.blur_speedup:.1f}x "
            f"(paper: 17x); naive offload slowdown: "
            f"{self.naive_slowdown:.1f}x (paper: ~24x)"
        )
        return "\n".join(lines)


def run_table2(flow: Optional[OptimizationFlow] = None) -> Table2:
    """Run all five implementations and assemble Table II."""
    flow = flow or make_paper_flow()
    rows = []
    for result in flow.run_all():
        paper_blur, paper_total = PAPER_TABLE2[result.key]
        rows.append(
            Table2Row(
                key=result.key,
                title=result.title,
                blur_seconds=result.blur_seconds,
                total_seconds=result.total_seconds,
                paper_blur_seconds=paper_blur,
                paper_total_seconds=paper_total,
                result=result,
            )
        )
    return Table2(rows=rows)
