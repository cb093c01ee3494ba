"""Measure this host's FFT crossover and write a calibration profile.

``repro.tonemap.gaussian`` dispatches ``method="auto"`` on one
calibrated crossover: ``fft_crossover_taps`` (folded sliding window →
FFT row convolution).  The built-in default was measured on the
reference host; a different FFT build or cache hierarchy moves it.
This module re-measures the crossover *here* and writes it as a
:class:`~repro.planner.profile.CalibrationProfile`:

    PYTHONPATH=src python -m repro.cli planner calibrate -o host.json
    export REPRO_PLANNER_PROFILE=host.json

The sweep times :func:`separable_blur` with the method pinned, so the
numbers are end-to-end (both separable passes), not synthetic.  The
crossover is the smallest grid point from which the FFT wins at every
remaining grid point — a single noisy win does not move the dispatch.
``--quick`` shrinks the grid for smoke runs (CI / tests); use the
defaults (or larger ``--rounds``) for a real calibration.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.planner.profile import (
    CalibrationProfile,
    active_profile,
)
from repro.tonemap.gaussian import GaussianKernel, separable_blur

#: Radii swept for the folded-vs-FFT crossover (taps = 2r + 1).
RADIUS_GRID = (4, 6, 8, 10, 12, 14, 16, 20, 24, 32)
QUICK_RADIUS_GRID = (4, 8, 12)


def _best_seconds(fn, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _stable_crossover(rows, key):
    """Smallest grid point from which the challenger wins at every
    remaining point; ``None`` when it never stabilizes."""
    for i, row in enumerate(rows):
        if all(r["challenger_s"] < r["incumbent_s"] for r in rows[i:]):
            return row[key]
    return None


def sweep_fft_taps(size: int, rounds: int, grid) -> dict:
    """folded vs FFT row convolution across kernel widths."""
    rng = np.random.default_rng(2018)
    plane = rng.uniform(0.0, 1.0, (size, size))
    rows = []
    for radius in grid:
        kernel = GaussianKernel(sigma=max(radius / 3.0, 0.5), radius=radius)
        folded_s = _best_seconds(
            lambda: separable_blur(plane, kernel, method="folded"), rounds
        )
        fft_s = _best_seconds(
            lambda: separable_blur(plane, kernel, method="fft"), rounds
        )
        rows.append(
            {
                "taps": kernel.taps,
                "incumbent_s": folded_s,
                "challenger_s": fft_s,
            }
        )
    crossover = _stable_crossover(rows, "taps")
    if crossover is None:
        # FFT never stabilized as the winner on this grid: recommend a
        # value just past the widest measured kernel so auto stays on
        # the sliding-window paths where they are known to win.
        crossover = rows[-1]["taps"] + 2
    return {"rows": rows, "recommended": int(crossover)}


def build_profile(fft: dict, quick: bool = False) -> CalibrationProfile:
    """Assemble a profile from the sweep result.

    The FFT crossover comes from the sweep; ``fused_fft_min_taps`` is
    carried over from the currently active profile (it calibrates
    against the fused benchmark suite, not this sweep) — the provenance
    string records both facts.
    """
    return CalibrationProfile(
        fft_crossover_taps=fft["recommended"],
        fused_fft_min_taps=active_profile().fused_fft_min_taps,
        host=f"{platform.node() or 'unknown'} ({platform.machine()})",
        source="calibration" + (" (quick)" if quick else ""),
        calibrated=not quick,
    )


def run_calibration(
    size: int = 768,
    rounds: int = 3,
    quick: bool = False,
) -> dict:
    """Run the sweep and build the profile."""
    radius_grid = QUICK_RADIUS_GRID if quick else RADIUS_GRID
    size = min(size, 256) if quick else size
    fft = sweep_fft_taps(size, rounds, radius_grid)
    profile = build_profile(fft, quick=quick)
    return {"fft": fft, "profile": profile, "size": size}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro planner calibrate",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--size", type=int, default=768,
        help="plane edge for the FFT-crossover sweep (default 768)",
    )
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="timing rounds per point, best-of (default 3)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="a tiny grid for smoke runs (CI); not a real calibration",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the full sweep as JSON instead of the report",
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=None,
        help="write the calibration profile JSON here (load it via "
        "REPRO_PLANNER_PROFILE or CalibrationProfile.load)",
    )
    args = parser.parse_args(argv)

    result = run_calibration(
        size=args.size, rounds=args.rounds, quick=args.quick
    )
    fft = result["fft"]
    profile: CalibrationProfile = result["profile"]

    if args.output is not None:
        profile.save(args.output, extra={"sweeps": {"fft": fft}})

    if args.json:
        payload = {"fft": fft, "profile": profile.to_json_dict()}
        print(json.dumps(payload, indent=2))
        return 0

    current = active_profile()
    print(f"FFT crossover sweep ({result['size']}x{result['size']} plane, "
          f"best of {args.rounds}):")
    for row in fft["rows"]:
        winner = "fft" if row["challenger_s"] < row["incumbent_s"] else "folded"
        print(f"  taps {row['taps']:>3}: folded {row['incumbent_s']*1e3:8.2f} ms"
              f"   fft {row['challenger_s']*1e3:8.2f} ms   -> {winner}")
    print()
    print(f"current dispatch: fft_crossover_taps="
          f"{current.fft_crossover_taps} "
          f"fused_fft_min_taps={current.fused_fft_min_taps} "
          f"(source: {current.source})")
    print(f"recommended for this host: fft_crossover_taps="
          f"{fft['recommended']}")
    if args.output is not None:
        print(f"profile written to {args.output} "
              f"(activate it with REPRO_PLANNER_PROFILE={args.output})")
    else:
        print("write it with -o FILE and point REPRO_PLANNER_PROFILE at "
              "the file")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
