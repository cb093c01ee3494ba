"""Text bar charts for the figure reproductions.

The harness runs in terminals and CI, so figures render as horizontal
ASCII bars: one row per implementation, optionally stacked by segment
(PS/PL for Fig. 6, rails for Fig. 7, bottomline/overhead for Fig. 8).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import ReproError

#: Glyph per segment, cycled in order.
SEGMENT_GLYPHS = "#*+=o%@"


def horizontal_bar_chart(
    rows: Sequence[Tuple[str, Dict[str, float]]],
    unit: str,
    width: int = 50,
    title: str = "",
) -> str:
    """Render stacked horizontal bars.

    *rows* is ``[(label, {segment: value, ...}), ...]``; segment order is
    taken from the first row and must be consistent.
    """
    if not rows:
        raise ReproError("chart needs at least one row")
    if width < 10:
        raise ReproError("chart width must be >= 10")
    segments = list(rows[0][1])
    for label, values in rows:
        if list(values) != segments:
            raise ReproError(
                f"row {label!r} has segments {list(values)}; expected {segments}"
            )
        for name, value in values.items():
            if value < 0:
                raise ReproError(f"negative value for {label!r}/{name!r}")

    totals = [sum(values.values()) for _, values in rows]
    peak = max(totals) or 1.0
    label_width = max(len(label) for label, _ in rows)

    lines: List[str] = []
    if title:
        lines.append(title)
    legend = "  ".join(
        f"{SEGMENT_GLYPHS[i % len(SEGMENT_GLYPHS)]}={name}"
        for i, name in enumerate(segments)
    )
    lines.append(f"  [{legend}]")
    for (label, values), total in zip(rows, totals):
        bar = ""
        for i, name in enumerate(segments):
            glyph = SEGMENT_GLYPHS[i % len(SEGMENT_GLYPHS)]
            cells = int(round(values[name] / peak * width))
            bar += glyph * cells
        lines.append(
            f"  {label.ljust(label_width)} |{bar.ljust(width)}| "
            f"{total:9.3f} {unit}"
        )
    return "\n".join(lines)

