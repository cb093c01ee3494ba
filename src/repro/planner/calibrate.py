"""Measure this host's dispatch crossovers and write a calibration profile.

``repro.tonemap.gaussian`` dispatches ``method="auto"`` on two
calibrated crossovers: ``fft_crossover_taps`` (folded sliding window →
FFT row convolution) and ``tiled_min_plane_bytes`` (folded →
cache-blocked tiled traversal for narrow kernels).  The built-in
defaults were measured on the reference host; a different FFT build,
cache hierarchy, or memory subsystem moves them.  This module
re-measures the crossovers *here* and writes them as a
:class:`~repro.planner.profile.CalibrationProfile`:

    PYTHONPATH=src python -m repro.cli planner calibrate -o host.json
    export REPRO_PLANNER_PROFILE=host.json

(For one-off pins the per-threshold env vars still work — the report
prints them — but the profile file carries provenance and survives
shells.)

The sweep times :func:`separable_blur` with the method pinned, so the
numbers are end-to-end (both separable passes), not synthetic.  A
crossover is the smallest grid point from which the challenger path wins
at every remaining grid point — a single noisy win does not move the
dispatch.  ``--quick`` shrinks the grids for smoke runs (CI / tests);
use the defaults (or larger ``--rounds``) for a real calibration.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Optional

import numpy as np

from repro.planner.profile import (
    CalibrationProfile,
    active_profile,
)
from repro.tonemap.gaussian import GaussianKernel, separable_blur

#: Radii swept for the folded-vs-FFT crossover (taps = 2r + 1).
RADIUS_GRID = (4, 6, 8, 10, 12, 14, 16, 20, 24, 32)
QUICK_RADIUS_GRID = (4, 8, 12)

#: Plane edge sizes swept for the folded-vs-tiled crossover.
SIZE_GRID = (512, 768, 1024, 1536, 2048, 3072)
QUICK_SIZE_GRID = (128, 256)

#: Narrow-kernel radius used for the tiled sweep (must stay below the
#: FFT crossover, where the tiled path is reachable at all).
TILED_SWEEP_RADIUS = 8


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


def sweep_tiled_bytes(rounds: int, grid) -> dict:
    """folded vs tiled traversal across plane sizes (narrow kernel)."""
    rng = np.random.default_rng(2019)
    kernel = GaussianKernel(
        sigma=TILED_SWEEP_RADIUS / 3.0, radius=TILED_SWEEP_RADIUS
    )
    rows = []
    for size in grid:
        plane = rng.uniform(0.0, 1.0, (size, size))
        folded_s = _best_seconds(
            lambda: separable_blur(plane, kernel, method="folded"), rounds
        )
        tiled_s = _best_seconds(
            lambda: separable_blur(plane, kernel, method="tiled"), rounds
        )
        rows.append(
            {
                "plane_bytes": plane.nbytes,
                "size": size,
                "incumbent_s": folded_s,
                "challenger_s": tiled_s,
            }
        )
    crossover = _stable_crossover(rows, "plane_bytes")
    if crossover is None:
        # Tiling never stabilized as the winner (typical on hosts whose
        # LLC swallows the whole sweep): push the threshold past the
        # largest measured plane.
        crossover = rows[-1]["plane_bytes"] * 2
    return {"rows": rows, "recommended": int(crossover)}


def build_profile(fft: dict, tiled: dict, quick: bool = False) -> CalibrationProfile:
    """Assemble a profile from sweep results.

    The two measured crossovers come from the sweeps; the fused-engine
    thresholds are carried over from the currently active profile (they
    calibrate against the fused benchmark suite, not these sweeps) —
    the provenance string records both facts.
    """
    base = active_profile()
    return CalibrationProfile(
        fft_crossover_taps=fft["recommended"],
        tiled_min_plane_bytes=tiled["recommended"],
        fused_fft_min_taps=base.fused_fft_min_taps,
        fused_band_bytes=base.fused_band_bytes,
        fused_pooled_geometries=base.fused_pooled_geometries,
        host=f"{platform.node() or 'unknown'} ({platform.machine()})",
        source="calibration" + (" (quick)" if quick else ""),
        calibrated=not quick,
    )


def run_calibration(
    size: int = 768,
    rounds: int = 3,
    quick: bool = False,
) -> dict:
    """Run both sweeps and build the profile; returns all three."""
    radius_grid = QUICK_RADIUS_GRID if quick else RADIUS_GRID
    size_grid = QUICK_SIZE_GRID if quick else SIZE_GRID
    size = min(size, 256) if quick else size
    fft = sweep_fft_taps(size, rounds, radius_grid)
    tiled = sweep_tiled_bytes(rounds, size_grid)
    profile = build_profile(fft, tiled, quick=quick)
    return {"fft": fft, "tiled": tiled, "profile": profile, "size": size}


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
        help="tiny grids for smoke runs (CI); not a real calibration",
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
    fft, tiled = result["fft"], result["tiled"]
    profile: CalibrationProfile = result["profile"]

    if args.output is not None:
        profile.save(
            args.output,
            extra={"sweeps": {"fft": fft, "tiled": tiled}},
        )

    if args.json:
        payload = {
            "fft": fft,
            "tiled": tiled,
            "profile": profile.to_json_dict(),
        }
        print(json.dumps(payload, indent=2))
        return 0

    current = active_profile()
    print(f"FFT crossover sweep ({result['size']}x{result['size']} plane, "
          f"best of {args.rounds}):")
    for row in fft["rows"]:
        winner = "fft" if row["challenger_s"] < row["incumbent_s"] else "folded"
        print(f"  taps {row['taps']:>3}: folded {row['incumbent_s']*1e3:8.2f} ms"
              f"   fft {row['challenger_s']*1e3:8.2f} ms   -> {winner}")
    print(f"Tiled crossover sweep (radius {TILED_SWEEP_RADIUS} kernel):")
    for row in tiled["rows"]:
        winner = (
            "tiled" if row["challenger_s"] < row["incumbent_s"] else "folded"
        )
        print(f"  {row['size']:>4}^2 ({row['plane_bytes']:>10} B): "
              f"folded {row['incumbent_s']*1e3:8.2f} ms   "
              f"tiled {row['challenger_s']*1e3:8.2f} ms   -> {winner}")
    print()
    print(f"current dispatch: fft_crossover_taps="
          f"{current.fft_crossover_taps} "
          f"tiled_min_plane_bytes={current.tiled_min_plane_bytes} "
          f"(source: {current.source})")
    if args.output is not None:
        print(f"profile written to {args.output} "
              f"(activate: export REPRO_PLANNER_PROFILE={args.output})")
    print("recommended overrides for this host "
          "(read by the planner at call time):")
    print(f"export REPRO_FFT_CROSSOVER_TAPS={fft['recommended']}")
    print(f"export REPRO_TILED_MIN_PLANE_BYTES={tiled['recommended']}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
