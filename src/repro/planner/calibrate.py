"""Measure this host's two dispatch crossovers and write a profile.

The dispatch runs on two calibrated crossovers.  ``fft_crossover_taps``
moves the staged ``method="auto"`` row convolution from the folded
sliding window to the FFT; ``fused_fft_min_taps`` moves the fused
engine's mask from the band ring to the whole-plane FFT.  The built-in
defaults were measured on the reference host; a different FFT build,
cache hierarchy or band-kernel build (compiled or NumPy) moves them.
This module re-measures both *here* and writes them as a
:class:`~repro.planner.profile.CalibrationProfile`:

    PYTHONPATH=src python -m repro.cli planner calibrate -o host.json
    export REPRO_PLANNER_PROFILE=host.json

The FFT sweep times :func:`separable_blur` with the method pinned; the
fused sweep times a :class:`~repro.runtime.fused.FusedExecutor` over an
RGB stack with the mask regime pinned, on whichever band kernels load
on this host.  Both are end to end (both separable passes; the whole
fused pass), not synthetic.  Each crossover is the smallest grid point
from which the challenger wins at every remaining grid point — a
single noisy win does not move the dispatch.  ``--quick`` shrinks the
grids and frames for smoke runs (CI / tests); use the defaults (or
larger ``--rounds``) for a real calibration.
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
from repro.runtime.fused import FusedExecutor, FusedToneMapPlan
from repro.tonemap.gaussian import GaussianKernel, separable_blur
from repro.tonemap.pipeline import ToneMapParams

#: Radii swept for the folded-vs-FFT crossover (taps = 2r + 1).
RADIUS_GRID = (4, 6, 8, 10, 12, 14, 16, 20, 24, 32)
QUICK_RADIUS_GRID = (4, 8, 12)

#: Radii swept for the fused band-ring-vs-plane crossover: taps 25 to
#: 289, the paper's sigma 16 (97 taps) among them.
FUSED_RADIUS_GRID = (12, 16, 24, 48, 72, 96, 144)
QUICK_FUSED_RADIUS_GRID = (12, 48)


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


def sweep_fused_taps(size: int, rounds: int, grid) -> dict:
    """Fused band ring vs whole-plane FFT mask across kernel widths.

    Times :meth:`FusedExecutor.run` on one ``size``² RGB frame per
    worker thread, with each regime pinned through the plan's profile.
    """
    rows = []
    with FusedExecutor() as executor:
        rng = np.random.default_rng(2018)
        shape = (executor.threads, size, size, 3)
        stack = rng.uniform(0.0, 2.0, shape).astype(np.float32)
        out = np.empty(shape, dtype=np.float32)
        for radius in grid:
            params = ToneMapParams(sigma=max(radius / 3.0, 0.5), radius=radius)
            taps = params.kernel().taps
            seconds = {}
            for regime, profile in (
                ("ring", CalibrationProfile(fused_fft_min_taps=taps + 1)),
                ("plane", CalibrationProfile(
                    fft_crossover_taps=taps, fused_fft_min_taps=taps
                )),
            ):
                plan = FusedToneMapPlan(params, profile=profile)
                executor.run(plan, stack, out)  # warm the scratch
                seconds[regime] = _best_seconds(
                    lambda: executor.run(plan, stack, out), rounds
                )
            rows.append(
                {
                    "taps": taps,
                    "incumbent_s": seconds["ring"],
                    "challenger_s": seconds["plane"],
                }
            )
    crossover = _stable_crossover(rows, "taps")
    if crossover is None:
        # The plane never stabilized as the winner: keep every measured
        # kernel on the ring.
        crossover = rows[-1]["taps"] + 2
    return {"rows": rows, "recommended": int(crossover), "stack": shape}


def build_profile(
    fft: dict, fused: dict, quick: bool = False
) -> CalibrationProfile:
    """Assemble a profile from the two sweeps' recommendations."""
    return CalibrationProfile(
        fft_crossover_taps=fft["recommended"],
        fused_fft_min_taps=fused["recommended"],
        host=f"{platform.node() or 'unknown'} ({platform.machine()})",
        source="calibration" + (" (quick)" if quick else ""),
        calibrated=not quick,
    )


def run_calibration(
    size: int = 768,
    rounds: int = 3,
    quick: bool = False,
) -> dict:
    """Run both sweeps and build the profile."""
    radius_grid = QUICK_RADIUS_GRID if quick else RADIUS_GRID
    fused_grid = QUICK_FUSED_RADIUS_GRID if quick else FUSED_RADIUS_GRID
    size = min(size, 256) if quick else size
    fft = sweep_fft_taps(size, rounds, radius_grid)
    fused = sweep_fused_taps(min(size, 128) if quick else size, rounds,
                             fused_grid)
    profile = build_profile(fft, fused, quick=quick)
    return {"fft": fft, "fused": fused, "profile": profile, "size": size}


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The calibration flags, shared with ``repro-experiments planner
    calibrate`` (whose arguments :func:`run` takes as they are)."""
    parser.add_argument(
        "--size", type=int, default=768,
        help="frame edge for both crossover sweeps (default 768)",
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro planner calibrate",
        description=__doc__.splitlines()[0],
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Calibrate as the parsed :func:`add_arguments` flags ask."""
    result = run_calibration(
        size=args.size, rounds=args.rounds, quick=args.quick
    )
    fft, fused = result["fft"], result["fused"]
    profile: CalibrationProfile = result["profile"]

    if args.output is not None:
        profile.save(
            args.output, extra={"sweeps": {"fft": fft, "fused": fused}}
        )

    if args.json:
        payload = {
            "fft": fft, "fused": fused, "profile": profile.to_json_dict()
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
    print(f"fused mask sweep ({'x'.join(map(str, fused['stack']))} RGB "
          f"stack, one frame per thread, best of {args.rounds}):")
    for row in fused["rows"]:
        plane_wins = row["challenger_s"] < row["incumbent_s"]
        winner = "plane" if plane_wins else "ring"
        print(f"  taps {row['taps']:>3}: ring {row['incumbent_s']*1e3:8.2f} ms"
              f"   plane {row['challenger_s']*1e3:8.2f} ms   -> {winner}")
    print()
    print(f"current dispatch: fft_crossover_taps="
          f"{current.fft_crossover_taps} "
          f"fused_fft_min_taps={current.fused_fft_min_taps} "
          f"(source: {current.source})")
    print(f"recommended for this host: fft_crossover_taps="
          f"{fft['recommended']}")
    print(f"                           fused_fft_min_taps="
          f"{fused['recommended']}")
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
